"""Tests for whole-circuit constrained ATPG runs."""

from repro.api import AtpgConfig
from repro.atpg import (
    CircuitBdd,
    TestStatus,
    constraint_builder_from_terms,
    run_atpg,
)
from repro.conversion import constraint_for_lines
from repro.digital import (
    coverage,
    fault_universe,
    ripple_adder,
)
from repro.digital.library import fig3_circuit


class TestRunAtpg:
    def test_default_universe_is_collapsed(self):
        run = run_atpg(fig3_circuit())
        universe = fault_universe(fig3_circuit())
        assert run.n_faults < len(universe)

    def test_vectors_cover_detected_faults(self):
        circuit = ripple_adder(2)
        run = run_atpg(circuit)
        detected = [
            r.fault for r in run.results if r.status is TestStatus.DETECTED
        ]
        assert coverage(circuit, run.vectors, detected) == 1.0

    def test_compaction_reduces_vectors(self):
        circuit = ripple_adder(3)
        compacted = run_atpg(circuit, config=AtpgConfig(compact=True))
        raw = run_atpg(circuit, config=AtpgConfig(compact=False))
        assert compacted.n_vectors <= raw.n_vectors

    def test_cpu_time_recorded(self):
        run = run_atpg(fig3_circuit())
        assert run.cpu_seconds > 0

    def test_given_compile_is_reused(self, circuit_bdd_builds):
        circuit = ripple_adder(2)
        cbdd = CircuitBdd(circuit)
        reused = run_atpg(circuit, cbdd=cbdd)
        assert circuit_bdd_builds == [circuit.name]
        fresh = run_atpg(circuit)
        assert circuit_bdd_builds == [circuit.name, circuit.name]
        assert reused.vectors == fresh.vectors
        assert [r.status for r in reused.results] == [
            r.status for r in fresh.results
        ]

    def test_counters_consistent(self):
        run = run_atpg(fig3_circuit())
        assert run.n_detected + run.n_untestable == len(run.results)
        assert run.fault_coverage == run.n_detected / len(run.results)

    def test_constrained_run_flags(self):
        circuit = fig3_circuit()
        faults = fault_universe(circuit, include_branches=False)
        run = run_atpg(
            circuit,
            faults=faults,
            constraint=constraint_builder_from_terms([{"l0": 1}, {"l2": 1}]),
        )
        assert run.constrained
        assert run.n_constrained_untestable == 2
        assert run.n_untestable == 2

    def test_thermometer_constraint_builder(self):
        # A popcount encoder whose inputs are all thermometer lines: with
        # the constraint, many input-pattern-specific faults die.
        from repro.conversion import popcount_encoder

        circuit = popcount_encoder(4)
        lines = [f"T{i}" for i in range(4)]
        free = run_atpg(circuit)
        constrained = run_atpg(
            circuit, constraint=constraint_for_lines(lines)
        )
        assert constrained.n_untestable >= free.n_untestable
        assert constrained.n_untestable > 0  # 5 of 16 codes reachable

    def test_untestable_faults_listing(self):
        circuit = fig3_circuit()
        faults = fault_universe(circuit, include_branches=False)
        run = run_atpg(
            circuit,
            faults=faults,
            constraint=constraint_builder_from_terms([{"l0": 1}, {"l2": 1}]),
        )
        assert {str(f) for f in run.untestable_faults()} == {
            "l3 s-a-0",
            "l5 s-a-0",
        }
