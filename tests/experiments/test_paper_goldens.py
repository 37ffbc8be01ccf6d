"""Paper goldens: every number Example 1/2, Tables 1–8, Figure 6 and the filter responses reproduce, pinned.

Each golden under ``tests/experiments/goldens/`` is the canonical JSON
(sorted keys, ``repr`` floats, untestable deviations as ``"inf"``) of an
experiment's ``to_document()``: the full worst-case-deviation matrix
(deviation and direction per cell), the selected analog test set, and
for Table 3 the case-1/case-2 coverage columns.  Table 4's golden holds
every row's #PI/#PO/collapsed-fault/#Untest/#vect columns (CPU columns
excluded), the compacted vectors and each fault's status, vector and
observing outputs; Example 2's holds the same per-fault lines for the
Figure 3 circuit without and with ``Fc = l0 + l2``; Figure 6's holds
the output OBDDs (text and DOT, nodes labelled in depth-first order)
and the propagation verdict.  Table 5's holds each circuit's blocked-comparator
counts for ``D`` and ``D̄`` and the per-comparator ``D`` observability (CPU
column excluded); Table 7's holds each digital block's case-2 ladder
coverage (taps, merged elements, E.D. per tap).  Table 1's holds the
stimulus ``(A, f)``, comparator values and composite value of every
(parameter, bound) row; Table 8's holds each board row's CD and MPD and
its out-of-box and digital-visibility verdicts.  Table 2's holds the
notation glossary row by row; Table 6's the direct-access ladder
coverage (taps, elements, E.D. per tap); the responses golden holds
every sampled transfer value of the Figure 2/7/8 filters (real and
imaginary parts) and their headline numbers.  The tests regenerate the
experiments and require byte-identical files, so a refactor of a hot
path cannot quietly move a paper number, and the
``*_holds_the_paper_claims`` tests read each document the way the paper
reads its table.  Tier-1 regenerates every golden but the full Table 4,
of which it checks the c499/c1908 rows; the full five-row Table 4 check
is marked ``slow``.

Regenerate (after an *intentional* change of reproduced numbers) with::

    PYTHONPATH=src python tests/experiments/test_paper_goldens.py [NAME ...]

Check ``experiment`` artifacts written by the CLI against the goldens
(prints a unified diff and exits 1 on any difference)::

    PYTHONPATH=src python -m repro experiment example1 --json ex1.json
    PYTHONPATH=src python tests/experiments/test_paper_goldens.py --check ex1.json
"""

import difflib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parents[2] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import pytest

from repro.circuits import TABLE4_CIRCUITS
from repro.experiments.runner import EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_EXPERIMENTS = (
    "example1", "example2", "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "figure6", "responses",
)
#: goldens holding a worst-case-deviation matrix.
MATRIX_GOLDENS = ("example1", "table3")
#: Table 4 rows regenerated by tier-1 (the full table runs under ``slow``).
TIER1_TABLE4_ROWS = ("c499", "c1908")


def render(document: dict) -> str:
    """The canonical golden text of one experiment document."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def regenerate(name: str) -> str:
    """Run one experiment and render its golden text."""
    return render(EXPERIMENTS[name].run().to_document())


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize(
    "name",
    [
        *MATRIX_GOLDENS,
        "example2",
        "table1",
        "table2",
        "table5",
        "table6",
        "table7",
        "table8",
        "figure6",
        "responses",
        pytest.param("table4", marks=pytest.mark.slow),
    ],
)
def test_reproduction_matches_golden_byte_for_byte(name):
    assert regenerate(name) == golden_path(name).read_text()


@pytest.mark.parametrize("circuit", TIER1_TABLE4_ROWS)
def test_table4_row_matches_golden(circuit):
    golden_rows = {
        row["circuit"]: row
        for row in json.loads(golden_path("table4").read_text())["rows"]
    }
    row = EXPERIMENTS["table4"].run((circuit,)).rows[0]
    assert render(row.to_document()) == render(golden_rows[circuit])


def _fault_lines(case: dict) -> dict[str, str]:
    """``fault -> status`` from an ATPG case's per-fault lines."""
    return dict(line.split(" | ")[:2] for line in case["faults"])


def _testable(document: dict, parameter: str) -> dict[str, float]:
    """``element -> deviation`` of one matrix row, dashed cells left out."""
    row = document["matrix"]["cells"][parameter]
    return {
        element: cell["deviation"]
        for element, cell in row.items()
        if cell["deviation"] != "inf"
    }


def test_example1_golden_holds_the_paper_claims():
    """Eq. 1: A1 covers exactly {Rg, Rd}, both near 10 %; f0 is blind to
    Rg and Rd only; the selected tests cover every element."""
    document = json.loads(golden_path("example1").read_text())
    elements = set(document["matrix"]["elements"])
    a1 = _testable(document, "A1")
    assert set(a1) == {"Rg", "Rd"}
    assert all(0.05 < deviation < 0.15 for deviation in a1.values())
    assert set(_testable(document, "f0")) == elements - {"Rg", "Rd"}
    selection = document["selection"]
    assert selection["uncovered"] == []
    assert set(selection["element_coverage"]) == elements
    assert "A1" in selection["parameters"]


def test_table3_golden_holds_the_paper_claims():
    """Case 2 tests the Chebyshev elements with case 1's accuracy, and
    the E.D. spread spans an order of magnitude with a deep-feedback
    outlier (the paper's R5 = 113 %)."""
    from repro.experiments.table3 import Table3Result

    document = json.loads(golden_path("table3").read_text())
    elements = document["matrix"]["elements"]
    case1, case2 = (
        {element: tuple(entry) for element, entry in document[case].items()}
        for case in ("case1", "case2")
    )
    # The paper leaves its output-network resistors unlisted; R11 is the
    # one guaranteed-untestable divider element here.
    assert len(case1) >= len(elements) - 1
    finite = [ed for _parameter, ed in case1.values() if ed != "inf"]
    assert max(finite) > 80.0
    assert min(finite) < 30.0
    assert max(finite) > 3 * min(finite)
    assert Table3Result(None, case1, case2).same_accuracy
    assert len(case2) >= int(0.8 * len(elements))


def test_table4_golden_holds_the_paper_claims():
    """The constraints never remove an untestable fault and add some on
    all circuits but C499; vector counts stay far below fault counts."""
    rows = json.loads(golden_path("table4").read_text())["rows"]
    assert [row["circuit"] for row in rows] == list(TABLE4_CIRCUITS)
    increased = 0
    for row in rows:
        without, constrained = row["without"], row["with_constraints"]
        assert constrained["n_untestable"] >= without["n_untestable"]
        increased += constrained["n_untestable"] > without["n_untestable"]
        for case in (without, constrained):
            assert 0 < case["n_vectors"] < row["n_faults"]
    assert increased >= 4


def test_example2_golden_holds_the_paper_claims():
    """Section 2.2.1: 2 of the 18 Fig. 3 faults die under ``Fc = l0 + l2``."""
    document = json.loads(golden_path("example2").read_text())
    alone = _fault_lines(document["unconstrained"])
    constrained = _fault_lines(document["constrained"])
    assert document["n_faults"] == len(alone) == len(constrained) == 18
    assert document["unconstrained"]["n_untestable"] == 0
    assert set(alone.values()) == {"detected"}
    killed = {
        fault for fault, status in constrained.items() if status != "detected"
    }
    assert killed == {"l3 s-a-0", "l5 s-a-0"}
    assert document["constrained"]["n_untestable"] == 2


def test_figure6_golden_holds_the_paper_claims():
    """With l0 = D and l2 = D̄ the fault reaches Vo2, sensitized by l1 = 1."""
    document = json.loads(golden_path("figure6").read_text())
    assert "Vo2" in document["observable_outputs"]
    assert document["vector"] is not None
    assert document["vector"]["l1"] == 1
    assert 'label="D"' in document["dots"]["Vo2"]
    assert any(
        line.split(": ")[1].startswith("D ?")
        for line in document["texts"]["Vo2"].splitlines()
        if ": " in line
    )


def test_table5_golden_holds_the_paper_claims():
    """Only a minority of the 15 comparators block D or D̄ (paper: 0–4)."""
    rows = json.loads(golden_path("table5").read_text())["rows"]
    assert [row["circuit"] for row in rows] == list(TABLE4_CIRCUITS)
    for row in rows:
        assert row["n_converter_lines"] == 15
        assert len(row["observability_d"]) == 15
        assert row["blocked_d"] == row["observability_d"].count(False)
        # Most comparators must be usable, else the method is moot.
        assert row["blocked_d"] <= 7
        assert row["blocked_dbar"] <= 7


def test_table7_golden_holds_the_paper_claims():
    """Case 2 is never tighter than Table 6's direct access at any tap."""
    coverages = json.loads(golden_path("table7").read_text())["coverages"]
    assert set(coverages) == {"c432", "c499", "c1355"}
    direct = EXPERIMENTS["table6"].run().coverage
    for coverage in coverages.values():
        assert coverage["taps"] == direct.taps
        assert len(coverage["ed_percent"]) == 15
        for tap_index, ed in enumerate(coverage["ed_percent"]):
            if ed != "inf":
                assert ed >= direct.ed_percent[tap_index] - 1e-6


def test_table1_golden_holds_the_paper_claims():
    """Upper-bound tests read D̄, lower-bound tests D, for every parameter."""
    document = json.loads(golden_path("table1").read_text())
    rows = document["rows"]
    assert len(rows) == 10  # 5 parameters x 2 bounds
    for row in rows:
        # good 0 / faulty 1 past the upper bound, good 1 / faulty 0 below
        assert row["composite"] == ("Dbar" if row["bound"] == ">" else "D")
        assert row["amplitude"] > 0
    # The AC-gain stimulus sits at the parameter's own frequency.
    a2 = [row for row in rows if row["parameter"] == "A2"]
    assert a2 and all(row["frequency_hz"] == 10_000.0 for row in a2)
    # The center-frequency stimulus sits near the nominal f0 = 2.5 kHz.
    f0 = [row for row in rows if row["parameter"] == "f0"]
    assert f0 and all(2300 < row["frequency_hz"] < 2700 for row in f0)


def test_table8_golden_holds_the_paper_claims():
    """Every injected CD leaves the ±5 % box; most faults reach the outputs."""
    rows = json.loads(golden_path("table8").read_text())["rows"]
    assert len(rows) >= 8  # most of the 12 components covered
    for row in rows:
        assert row["out_of_box"] and row["mpd_percent"] > 5.0
    digital = [row for row in rows if row["detected_digitally"]]
    assert len(digital) >= int(0.7 * len(rows))


def test_table2_golden_holds_the_paper_claims():
    """The glossary names every parameter kind, then Vref and y."""
    from repro.analog import ParameterKind

    rows = json.loads(golden_path("table2").read_text())["rows"]
    symbols = [symbol for symbol, _ in rows]
    assert sorted(symbols[:-2]) == sorted(kind.value for kind in ParameterKind)
    assert symbols[-2:] == ["Vref", "y"]
    assert all(meaning for _, meaning in rows)


def test_table6_golden_holds_the_paper_claims():
    """The tent: tight at the rails, loosest at the merged ``R8,R9`` tap."""
    document = json.loads(golden_path("table6").read_text())
    eds = document["ed_percent"]
    assert len(eds) == len(document["taps"]) == 15
    assert all(isinstance(ed, float) for ed in eds)  # no dashed cell
    middle = len(eds) // 2
    # Tent: rises to the middle, falls after.
    for i in range(middle):
        assert eds[i] <= eds[i + 1] + 1e-6
    for i in range(middle, len(eds) - 1):
        assert eds[i] >= eds[i + 1] - 1e-6
    assert eds[middle] == max(eds)
    assert document["elements"][middle] == "R8,R9"  # the paper's merged cell
    assert eds[0] < 20.0 and eds[-1] < 20.0  # rail taps are tight


def test_responses_golden_holds_the_paper_claims():
    """Each filter meets its design: Fig. 2 band-pass at 2.5 kHz with
    gain 2, Fig. 7 Chebyshev knee at 10 kHz, Fig. 8 unit-gain LP."""
    document = json.loads(golden_path("responses").read_text())
    for response in document["responses"].values():
        n = len(response["frequencies_hz"])
        assert n > 1 and len(response["real"]) == len(response["imag"]) == n
    headlines = document["headlines"]

    bandpass = headlines["fig2-bandpass"]
    assert 2300 < bandpass["f0 [Hz]"] < 2700  # designed 2.5 kHz
    assert 1.8 < bandpass["A1 (peak gain)"] < 2.2  # designed gain 2
    assert bandpass["fc1 [Hz]"] < bandpass["f0 [Hz]"] < bandpass["fc2 [Hz]"]

    chebyshev = headlines["fig7-chebyshev"]
    assert 0.8 < chebyshev["Adc"] < 1.2
    assert 5_000 < chebyshev["fc [Hz]"] < 15_000  # the 10 kHz knee

    state_variable = headlines["fig8-state-variable"]
    assert 0.5 < state_variable["A3dc (LP)"] < 1.5
    assert state_variable["fh1 [Hz] (HP)"] > 50_000


@pytest.mark.parametrize("name", MATRIX_GOLDENS)
def test_golden_is_strict_json_with_tagged_infinities(name):
    document = json.loads(golden_path(name).read_text())
    assert document["experiment"] == name
    cells = document["matrix"]["cells"]
    deviations = [
        cell["deviation"] for row in cells.values() for cell in row.values()
    ]
    assert "inf" in deviations  # the paper's dashed cells
    assert all(d == "inf" or isinstance(d, float) for d in deviations)


def _check(artifact_paths: list[str]) -> int:
    """Compare CLI ``experiment`` artifacts with the goldens."""
    failures = 0
    for path in artifact_paths:
        payload = json.loads(Path(path).read_text())["payload"]
        name = payload["name"]
        expected = golden_path(name).read_text()
        actual = render(payload["document"])
        if actual == expected:
            print(f"{name}: reproduced document == golden")
            continue
        failures += 1
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=str(golden_path(name)),
                tofile=path,
            )
        )
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        sys.exit(_check(sys.argv[2:]))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for experiment in sys.argv[1:] or GOLDEN_EXPERIMENTS:
        golden_path(experiment).write_text(regenerate(experiment))
        print(f"wrote {golden_path(experiment)}")
