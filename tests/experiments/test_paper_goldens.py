"""Paper goldens: every number Example 1 and Table 3 reproduce, pinned.

Each golden under ``tests/experiments/goldens/`` is the canonical JSON
(sorted keys, ``repr`` floats, untestable deviations as ``"inf"``) of an
experiment's ``to_document()``: the full worst-case-deviation matrix
(deviation and direction per cell), the selected analog test set, and
for Table 3 the case-1/case-2 coverage columns.  The tests
regenerate both experiments and require byte-identical files, so a
refactor of the measurement hot path cannot quietly move a paper number.

Regenerate (after an *intentional* change of reproduced numbers) with::

    PYTHONPATH=src python tests/experiments/test_paper_goldens.py

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

from repro.experiments.runner import EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_EXPERIMENTS = ("example1", "table3")


def render(document: dict) -> str:
    """The canonical golden text of one experiment document."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def regenerate(name: str) -> str:
    """Run one experiment and render its golden text."""
    return render(EXPERIMENTS[name].run().to_document())


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_reproduction_matches_golden_byte_for_byte(name):
    assert regenerate(name) == golden_path(name).read_text()


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
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
    for experiment in GOLDEN_EXPERIMENTS:
        golden_path(experiment).write_text(regenerate(experiment))
        print(f"wrote {golden_path(experiment)}")
