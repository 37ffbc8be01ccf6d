"""Workbench/session behaviour: pipelines, per-netlist BDDs, batch fan-out."""

import pytest

from repro.api import (
    ConfigError,
    GeneratorConfig,
    Pipeline,
    TestSession,
    Workbench,
)
from repro.api.registry import CircuitRegistry
from repro.circuits import fig4_mixed_circuit
from repro.digital.gates import GateType
from repro.digital.netlist import Gate


def _fig4_with_edited_outputs():
    """fig4 with both output gates retyped in place (counts unchanged)."""
    mixed = fig4_mixed_circuit()
    for name, gate_type in (("Vo1", GateType.AND), ("Vo2", GateType.OR)):
        old = mixed.digital.gates[name]
        mixed.digital.gates[name] = Gate(name, gate_type, old.fanins)
    return mixed


@pytest.fixture
def edited_registry():
    registry = CircuitRegistry()
    registry.register("fig4", fig4_mixed_circuit, kind="mixed")
    registry.register("fig4-edited", _fig4_with_edited_outputs, kind="mixed")
    return registry


class TestPipelineValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown pipeline stage"):
            Pipeline(["sensitivity", "teleport"])

    def test_out_of_order_stages_rejected(self):
        with pytest.raises(ConfigError, match="canonical order"):
            Pipeline(["stimulus", "sensitivity"])

    def test_duplicate_stages_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Pipeline(["stimulus", "stimulus"])

    def test_campaign_requires_stimulus(self):
        with pytest.raises(ConfigError, match="requires"):
            Pipeline(["sensitivity", "campaign"])


class TestSessionRun:
    def test_full_fig4_flow(self, fig4_result):
        report = fig4_result.report
        assert fig4_result.name == "fig4"
        assert report.analog_coverage == 1.0
        assert report.digital_run is not None
        assert report.digital_run.n_vectors > 0
        assert fig4_result.campaign is not None
        assert fig4_result.campaign.guaranteed_detection_rate == 1.0

    def test_stage_timings_cover_requested_stages(self, fig4_result):
        stages = [t.stage for t in fig4_result.timings]
        assert stages == [
            "sensitivity", "stimulus", "conversion", "atpg", "campaign",
        ]
        assert fig4_result.total_seconds > 0
        assert "pipeline timing" in fig4_result.summary()

    def test_alias_and_instance_inputs(self, fig4_session):
        by_alias = fig4_session.run("fig4-mixed", stages=("sensitivity",))
        assert by_alias.name == "fig4"
        mixed = fig4_session.circuit("fig4")
        by_instance = fig4_session.run(mixed, stages=("sensitivity",))
        assert by_instance.name == "fig4-mixed"  # instance keeps its own name

    def test_non_mixed_circuits_are_rejected(self, fig4_session):
        with pytest.raises(ConfigError, match="kind"):
            fig4_session.run("c432", stages=("sensitivity",))

    def test_include_digital_false_vetoes_the_atpg_stage(self, fig4_session):
        result = fig4_session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "atpg"),
            generator=GeneratorConfig(include_digital=False),
        )
        assert result.report.digital_run is None
        assert "atpg" not in [t.stage for t in result.timings]

    def test_per_call_config_overrides_session(self, fig4_session):
        result = fig4_session.run(
            "fig4",
            stages=("sensitivity", "stimulus"),
            generator=GeneratorConfig(comparator_budget=1),
        )
        assert result.configs["generator"]["comparator_budget"] == 1

    def test_default_runs_compiled_everywhere(self, fig4_result):
        # ATPG compaction and the campaign's digital responses both run
        # the compiled engine.
        assert fig4_result.report.digital_run.diagnostics[
            "digital_engine"
        ] == "compiled"
        assert fig4_result.campaign.diagnostics["digital_engine"] == (
            "compiled"
        )
        assert "[compiled]" in fig4_result.outcome.timing_table()

    def test_program_artifact(self, fig4_result):
        program = fig4_result.program()
        assert program.n_steps > 0
        artifact = fig4_result.program_artifact()
        assert artifact.kind == "program"


class TestBddPool:
    """A session keeps no BDDs: each run compiles the netlist it is given."""

    def test_edited_netlist_is_analysed_with_its_own_bdd(self, edited_registry):
        session = TestSession(registry=edited_registry)
        plain = session.run("fig4", stages=("conversion",)).report
        edited = session.run("fig4-edited", stages=("conversion",)).report
        assert plain.comparator_observability == [True, True]
        assert edited.comparator_observability == [True, False]

    def test_session_holds_only_registry_and_configs(self):
        session = TestSession()
        session.run("fig4", stages=("conversion",))
        assert set(vars(session)) == {"registry", "config"}

    def test_repeat_runs_compile_afresh(self, circuit_bdd_builds):
        session = TestSession()
        first = session.run("fig4", stages=("conversion",)).report
        second = session.run("fig4", stages=("conversion",)).report
        # fig4's digital block is the paper's Figure 3 netlist.
        assert circuit_bdd_builds == ["fig3", "fig3"]
        assert first.summary() == second.summary()

    def test_generation_compiles_the_digital_block_once(
        self, circuit_bdd_builds
    ):
        # Conversion, both ATPG runs (constrained and stand-alone) share
        # the mixed circuit's one compile.
        result = TestSession().run(
            "fig4",
            generator=GeneratorConfig(include_unconstrained=True),
        )
        assert result.report.digital_run is not None
        assert result.report.digital_run_unconstrained is not None
        assert circuit_bdd_builds == ["fig3"]


class TestRunBatch:
    def test_two_circuit_smoke(self):
        """The 2-circuit fan-out: results in order, both complete."""
        session = TestSession()
        results = session.run_batch(
            ["fig4", "example3-c432"],
            stages=("sensitivity", "conversion"),
        )
        assert [r.name for r in results] == ["fig4", "example3-c432"]
        for result in results:
            assert len(result.report.comparator_observability) > 0
            assert result.report.conversion_coverage is not None

    def test_empty_batch(self):
        assert TestSession().run_batch([]) == []

    def test_invalid_stages_fail_before_spawning(self):
        with pytest.raises(ConfigError):
            TestSession().run_batch(["fig4"], stages=("warp",))

    def test_repeated_instance_runs_once_per_entry(self):
        # The batch is a loop in the caller's thread, so one instance
        # may appear twice: each entry is a full run of it.
        session = TestSession()
        mixed = session.circuit("fig4")
        first, second = session.run_batch(
            [mixed, mixed], stages=("sensitivity",)
        )
        assert first.report.summary() == second.report.summary()


class TestWorkbenchFacade:
    def test_session_keyword_shorthand(self):
        session = Workbench().session(
            generator=GeneratorConfig(tolerance=0.1)
        )
        assert session.config.generator.tolerance == 0.1

    def test_session_rejects_config_plus_keywords(self):
        from repro.api import SessionConfig

        with pytest.raises(ConfigError):
            Workbench().session(
                SessionConfig(), generator=GeneratorConfig()
            )

    def test_list_circuits_and_experiments(self):
        wb = Workbench()
        names = [spec.name for spec in wb.list_circuits("mixed")]
        assert "fig4" in names
        assert "table1" in wb.list_experiments()

    def test_run_experiment(self):
        run = Workbench().run_experiment("figure6")
        assert run.name == "figure6"
        assert run.rendered
        assert run.seconds >= 0
        assert run.to_artifact().kind == "experiment"
        assert run.to_artifact().payload["document"] == run.result.to_document()

    def test_experiment_artifact_carries_the_document(self):
        from repro.api.session import ExperimentRun

        class Result:
            def to_document(self):
                return {"experiment": "x", "value": 0.1}

        artifact = ExperimentRun("x", Result(), "table", 0.5).to_artifact()
        assert artifact.payload["document"] == {"experiment": "x", "value": 0.1}
        assert artifact.payload["rendered"] == "table"
        plain = ExperimentRun("y", object(), "table", 0.5).to_artifact()
        assert "document" not in plain.payload

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            Workbench().run_experiment("table99")
