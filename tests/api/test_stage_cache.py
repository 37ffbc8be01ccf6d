"""The pipeline's generation cache: with a ``cache_dir``, the outputs
of the generation stages are one content-keyed ``pipeline-stage`` entry.

Warm runs must reproduce cold runs byte for byte and mark every
generation stage ``cached``; any edit to what the key covers must miss;
a torn, foreign or misshapen entry is a miss that the recompute
repairs; and without a ``cache_dir`` nothing is digested or cached.
"""

import json
import math
import shutil

import pytest

from repro.analog import DeviationMatrix, DeviationResult
from repro.api import (
    Artifact,
    AtpgConfig,
    CampaignConfig,
    GeneratorConfig,
    Workbench,
    default_registry,
)
from repro.api import pipeline as pipeline_module
from repro.api.audit import run_audit
from repro.api.cli import main
from repro.api.pipeline import DEFAULT_STAGES, FULL_STAGES, STAGE_NAMESPACE
from repro.core import program_io
from repro.core.cache import ResultCache
from repro.core.fingerprint import netlist_fingerprint
from repro.digital.gates import GateType
from repro.digital.netlist import Gate

MIXED = [spec.name for spec in default_registry().specs("mixed")]
GENERATION = ("sensitivity", "deviation", "stimulus", "conversion", "atpg")
#: the one circuit whose cold ATPG stage alone costs several seconds.
SLOW_CIRCUITS = {"example3-c1355"}


def _flags(result) -> dict[str, bool]:
    """``stage -> served from cache`` for the generation rows of a run."""
    return {t.stage: t.cached for t in result.timings if t.stage in GENERATION}


def _payload(result) -> str:
    return json.dumps(result.to_artifact().payload, sort_keys=True)


def _outputs(result) -> str:
    """The payload minus ATPG CPU times: what a recompute reproduces."""
    report = result.to_artifact().payload["report"]
    for key in ("digital_run", "digital_run_unconstrained"):
        if report[key] is not None:
            report[key].pop("cpu_seconds")
    return json.dumps(report, sort_keys=True)


def _deviations(result) -> str | None:
    if result.deviations is None:
        return None
    return json.dumps(result.deviations.to_document(), sort_keys=True)


def _entries(root) -> list[str]:
    """Fingerprints of the generation entries under ``root``."""
    return ResultCache(root).fingerprints(STAGE_NAMESPACE)


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session():
    return Workbench().session()


@pytest.fixture(scope="module")
def flows(session, tmp_path_factory):
    """Cold and warm ``generate`` and ``campaign`` flows per circuit.

    Each (circuit, flow) pair gets its own cache root, so its cold pass
    computes every stage."""
    done = {}

    def run(name, flow):
        if (name, flow) not in done:
            root = tmp_path_factory.mktemp(f"{name}-{flow}")
            stages = DEFAULT_STAGES if flow == "generate" else FULL_STAGES
            campaign = CampaignConfig(
                faults_per_element=2, seed=5, cache_dir=str(root)
            )
            done[name, flow] = [
                session.run(name, stages=stages, campaign=campaign)
                for _pass in ("cold", "warm")
            ]
        return done[name, flow]

    return run


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW_CIRCUITS else n
        for n in MIXED
    ],
)
@pytest.mark.parametrize("flow", ["generate", "campaign"])
def test_warm_run_equals_cold_run(flows, name, flow):
    cold, warm = flows(name, flow)
    assert not any(_flags(cold).values()), _flags(cold)
    assert _payload(warm) == _payload(cold)
    assert _deviations(warm) == _deviations(cold)
    assert all(_flags(warm).values()), _flags(warm)
    stages = DEFAULT_STAGES if flow == "generate" else FULL_STAGES
    assert list(_flags(warm)) == [s for s in stages if s in GENERATION]
    if flow == "campaign":
        assert warm.campaign is not None
        assert warm.campaign.n_injected == cold.campaign.n_injected > 0


def test_warm_summary_marks_every_generation_stage(flows):
    _cold, warm = flows("fig4", "campaign")
    table = warm.outcome.timing_table()
    for stage in GENERATION:
        row = next(line for line in table.splitlines()
                   if line.strip().startswith(stage + " "))
        assert row.endswith("[cached]"), row
    assert "campaign " in table and "[cached]" not in next(
        line for line in table.splitlines()
        if line.strip().startswith("campaign ")
    )


def test_warm_digital_runs_decode_as_summaries(flows):
    cold, warm = flows("fig4", "generate")
    assert cold.report.digital_diagnostics is not None
    assert warm.report.digital_diagnostics is None
    atpg_rows = [t for t in warm.timings if t.stage == "atpg"]
    assert atpg_rows[0].backend is None
    assert warm.report.digital_run.vectors == [
        dict(sorted(v.items())) for v in cold.report.digital_run.vectors
    ]
    assert program_io.dumps(warm.program()) == program_io.dumps(cold.program())


# ----------------------------------------------------------------------
class TestInvalidation:
    """An edit to anything the key covers recomputes every stage."""

    STAGES = GENERATION

    def _run(self, session, mixed, root, **configs):
        return session.run(
            mixed,
            stages=self.STAGES,
            campaign=CampaignConfig(cache_dir=str(root)),
            **configs,
        )

    def _assert_recomputed(self, result, root):
        assert not any(_flags(result).values()), _flags(result)
        assert len(_entries(root)) == 2

    @pytest.fixture(scope="class")
    def primed_root(self, session, tmp_path_factory):
        root = tmp_path_factory.mktemp("primed")
        cold = self._run(session, session.circuit("fig4"), root)
        assert not any(_flags(cold).values())
        return root, cold

    @pytest.fixture
    def primed(self, primed_root, tmp_path):
        """A private copy of the primed cache, so edits stay per test."""
        root, cold = primed_root
        shutil.copytree(root, tmp_path / "cache")
        return tmp_path / "cache", cold

    def test_unchanged_rerun_is_served(self, session, primed):
        root, cold = primed
        rerun = self._run(session, session.circuit("fig4"), root)
        assert all(_flags(rerun).values())
        assert _outputs(rerun) == _outputs(cold)
        assert len(_entries(root)) == 1

    def test_analog_value_edit(self, session, primed):
        root, cold = primed
        mixed = session.circuit("fig4")
        mixed.analog.component("R3").value *= 1.2
        edited = self._run(session, mixed, root)
        self._assert_recomputed(edited, root)
        assert _deviations(edited) != _deviations(cold)

    def test_measuring_a_deviated_state_keeps_the_key(self, session, primed):
        # Measuring at a deviation state (what activation and the
        # campaign engines do) never writes the circuit, so it moves
        # nothing the key covers.
        root, cold = primed
        mixed = session.circuit("fig4")
        for parameter in mixed.parameters:
            parameter.measure(mixed.analog, {"C1": 0.02, "Rg": -0.1})
        rerun = self._run(session, mixed, root)
        assert all(_flags(rerun).values())
        assert _outputs(rerun) == _outputs(cold)
        assert len(_entries(root)) == 1

    def test_same_count_gate_swap(self, session, primed):
        root, _cold = primed
        mixed = session.circuit("fig4")
        digital = mixed.digital
        stale = netlist_fingerprint(digital)
        gate = digital.gates["Vo1"]
        digital.gates["Vo1"] = Gate(gate.output, GateType.NOR, gate.fanins)
        assert netlist_fingerprint(digital) != stale
        edited = self._run(session, mixed, root)
        self._assert_recomputed(edited, root)
        uncached = session.run(mixed, stages=self.STAGES)
        assert _outputs(edited) == _outputs(uncached)

    def test_version_bump_recomputes_everything(
        self, session, primed, monkeypatch
    ):
        root, cold = primed
        monkeypatch.setattr(
            pipeline_module,
            "_GENERATION_VERSION",
            pipeline_module._GENERATION_VERSION + 1,
        )
        rerun = self._run(session, session.circuit("fig4"), root)
        self._assert_recomputed(rerun, root)
        assert _outputs(rerun) == _outputs(cold)

    @pytest.mark.parametrize(
        "configs",
        [
            {"generator": GeneratorConfig(tolerance=0.06)},
            {"generator": GeneratorConfig(include_unconstrained=True)},
            {"atpg": AtpgConfig(compact=False)},
        ],
        ids=["tolerance", "include_unconstrained", "atpg-compact"],
    )
    def test_configs_reach_the_key(self, session, primed, configs):
        root, _cold = primed
        rerun = self._run(session, session.circuit("fig4"), root, **configs)
        self._assert_recomputed(rerun, root)

    def test_default_and_full_stages_never_share_an_entry(
        self, session, tmp_path
    ):
        config = CampaignConfig(faults_per_element=2, cache_dir=str(tmp_path))
        session.run("fig4", stages=DEFAULT_STAGES, campaign=config)
        full = session.run("fig4", stages=FULL_STAGES, campaign=config)
        self._assert_recomputed(full, tmp_path)


# ----------------------------------------------------------------------
class TestDamagedEntries:
    STAGES = ("sensitivity", "stimulus", "conversion", "atpg")

    def _run(self, session, root, stages=STAGES):
        return session.run(
            "fig4",
            stages=stages,
            campaign=CampaignConfig(cache_dir=str(root)),
        )

    @pytest.mark.parametrize(
        "damage", ["torn", "foreign", "wrong-kind", "misshapen"]
    )
    def test_damaged_entry_is_a_miss_and_gets_repaired(
        self, session, tmp_path, damage
    ):
        cold = self._run(session, tmp_path)
        (fingerprint,) = _entries(tmp_path)
        path = ResultCache(tmp_path).path_for(STAGE_NAMESPACE, fingerprint)
        if damage == "torn":
            # a killed writer's half-written file
            path.write_text(path.read_text()[:40])
        elif damage == "foreign":
            # another run's valid entry under this key
            other = tmp_path / "other"
            self._run(session, other, stages=("sensitivity", "stimulus"))
            (other_fp,) = _entries(other)
            path.write_text(
                ResultCache(other).path_for(STAGE_NAMESPACE, other_fp)
                .read_text()
            )
        elif damage == "wrong-kind":
            # a valid artifact of another kind
            path.write_text(cold.to_artifact().to_json())
        else:
            # the right envelope around an undecodable report
            artifact = Artifact.from_json(path.read_text())
            artifact.payload["document"]["report"]["digital_run"] = 7
            path.write_text(artifact.to_json())

        warm = self._run(session, tmp_path)
        assert not any(_flags(warm).values()), _flags(warm)
        assert _outputs(warm) == _outputs(cold)
        # The recompute replaced the damaged entry.
        repaired = self._run(session, tmp_path)
        assert all(_flags(repaired).values()), _flags(repaired)
        assert _outputs(repaired) == _outputs(cold)


class TestSharing:
    def test_run_batch_with_one_cache_dir_matches_serial(
        self, session, tmp_path
    ):
        serial = session.run("fig4", stages=DEFAULT_STAGES)
        config = CampaignConfig(cache_dir=str(tmp_path))
        batch = Workbench().session(max_workers=3).run_batch(
            ["fig4", "fig4", "fig4-mixed"],
            stages=DEFAULT_STAGES,
            campaign=config,
        )
        for result in batch:
            assert _outputs(result) == _outputs(serial)
        warm = session.run("fig4", stages=DEFAULT_STAGES, campaign=config)
        assert all(_flags(warm).values())
        assert _outputs(warm) == _outputs(serial)

    def test_audit_replays_never_read_the_stage_cache(
        self, session, tmp_path, monkeypatch
    ):
        recorded = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "conversion", "atpg", "campaign"),
            campaign=CampaignConfig(
                faults_per_element=2, seed=11, cache_dir=str(tmp_path)
            ),
        )
        assert STAGE_NAMESPACE in ResultCache(tmp_path).namespaces()
        namespaces = []
        original = ResultCache.get_artifact

        def spy(self, namespace, fingerprint, kind=None):
            namespaces.append(namespace)
            return original(self, namespace, fingerprint, kind)

        monkeypatch.setattr(ResultCache, "get_artifact", spy)
        monkeypatch.setattr(
            pipeline_module, "_GenerationEntry",
            lambda *args: pytest.fail("audit replay built a generation entry"),
        )
        audit = run_audit(
            recorded.to_artifact(), cache=ResultCache(tmp_path / "audit")
        )
        assert audit.ok
        assert namespaces and STAGE_NAMESPACE not in namespaces


class TestWithoutCacheDir:
    def test_no_cache_and_no_digest(self, session, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no cache_dir, yet the cache was touched")

        monkeypatch.setattr(ResultCache, "__init__", refuse)
        monkeypatch.setattr(pipeline_module, "analog_fingerprint", refuse)
        monkeypatch.setattr(pipeline_module, "netlist_fingerprint", refuse)
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "conversion", "atpg", "campaign"),
            campaign=CampaignConfig(faults_per_element=2),
        )
        assert result.campaign.n_injected > 0
        assert not any(_flags(result).values())


def test_cli_warm_campaign_marks_stages_cached(tmp_path, capsys):
    argv = ["campaign", "fig4", "--faults-per-element", "2",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "[cached]" not in capsys.readouterr().out
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("[cached]") == len(GENERATION)
    assert set(ResultCache(tmp_path).namespaces()) == {
        "campaign-shard", STAGE_NAMESPACE,
    }


# ----------------------------------------------------------------------
def test_deviation_matrix_cache_codec_round_trips_every_field():
    results = {
        ("A1", "R1"): DeviationResult("A1", "R1", 0.1 + 0.2, -1, 1 / 3),
        ("A1", "C1"): DeviationResult("A1", "C1", math.inf, 1, 0.0),
    }
    matrix = DeviationMatrix(["A1"], ["R1", "C1"], results)
    text = json.dumps(matrix.to_cache_document(), allow_nan=False)
    back = DeviationMatrix.from_cache_document(json.loads(text))
    assert back == matrix
    assert list(back.results) == list(results)
    assert back.to_document() == matrix.to_document()
