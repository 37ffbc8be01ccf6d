"""Tests of the pluggable linear-system backends (dense vs sparse)."""

import numpy as np
import pytest

from repro.circuits import bandpass_filter, chebyshev_filter, rc_ladder
from repro.spice import (
    AnalogCircuit,
    AnalogError,
    BACKENDS,
    DenseBackend,
    MnaSolver,
    SPARSE_AUTO_THRESHOLD,
    SparseBackend,
    SparsityPattern,
    SystemAssembler,
    resolve_backend,
)


class TestResolveBackend:
    def test_names_resolve(self):
        assert resolve_backend("dense").name == "dense"
        assert resolve_backend("sparse").name == "sparse"

    def test_auto_picks_dense_below_threshold(self):
        assert resolve_backend("auto", n_nodes=4).name == "dense"
        assert resolve_backend("auto", n_nodes=None).name == "dense"

    def test_auto_picks_sparse_at_threshold(self):
        backend = resolve_backend("auto", n_nodes=SPARSE_AUTO_THRESHOLD)
        assert backend.name == "sparse"

    def test_instances_pass_through(self):
        backend = SparseBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(AnalogError, match="unknown linear-system"):
            resolve_backend("cuda")

    def test_backend_table_matches_config_constant(self):
        from repro.api.config import SIM_BACKENDS

        assert set(SIM_BACKENDS) == {"auto", *BACKENDS}


class TestSparsityPattern:
    def test_duplicates_accumulate_like_dense(self):
        rows = np.array([0, 1, 0, 0, 2, 2], dtype=np.intp)
        cols = np.array([0, 1, 0, 2, 2, 0], dtype=np.intp)
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], dtype=complex)
        pattern = SparsityPattern(rows, cols, 3)
        dense = np.zeros((3, 3), dtype=complex)
        np.add.at(dense, (rows, cols), values)
        assert np.allclose(pattern.csc(values).toarray(), dense)

    def test_reused_across_value_sets(self):
        rows = np.array([0, 1, 1], dtype=np.intp)
        cols = np.array([0, 0, 1], dtype=np.intp)
        pattern = SparsityPattern(rows, cols, 2)
        first = pattern.csc(np.array([1.0, 2.0, 3.0]))
        second = pattern.csc(np.array([10.0, 20.0, 30.0]))
        assert first[1, 0] == 2.0 and second[1, 0] == 20.0


class TestAssembledSystem:
    def _system(self):
        circuit = AnalogCircuit("divider")
        circuit.vsource("V1", "in", "0", dc=10.0)
        circuit.resistor("R1", "in", "mid", 1000.0)
        circuit.resistor("R2", "mid", "0", 3000.0)
        solver = MnaSolver(circuit)
        system, _, _ = solver._assemble(0.0)
        return system

    def test_dense_and_coo_views_agree(self):
        system = self._system()
        dense = system.to_dense()
        rebuilt = np.zeros_like(dense)
        np.add.at(rebuilt, (system.rows, system.cols), system.values)
        assert np.allclose(dense, rebuilt)

    def test_structure_key_stable_across_values(self):
        first = self._system()
        second = self._system()
        assert first.structure_key() == second.structure_key()


class TestBackendEquivalence:
    CIRCUITS = {
        "bandpass": bandpass_filter,
        "chebyshev": chebyshev_filter,
        "rc-ladder-16": lambda: rc_ladder(16),
    }

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("frequency", [0.0, 1.0e3, 25.0e3])
    def test_dense_and_sparse_solutions_agree(self, name, frequency):
        circuit = self.CIRCUITS[name]()
        dense = MnaSolver(circuit, backend="dense").solve(frequency)
        sparse = MnaSolver(circuit, backend="sparse").solve(frequency)
        for node in dense.nodes():
            assert sparse.voltage(node) == pytest.approx(
                dense.voltage(node), abs=1e-9
            )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_factorized_deviation_agrees_with_fresh_solve(self, backend):
        circuit = bandpass_filter()
        solver = MnaSolver(circuit, backend=backend)
        factorized = solver.factorized(2.5e3)
        with circuit.with_deviations({"R1": 0.25}):
            fresh = MnaSolver(circuit, backend=backend).solve(2.5e3)
        for node in fresh.nodes():
            deviated = factorized.deviation_batch([("R1", 0.25)], node)[0]
            assert deviated == pytest.approx(fresh.voltage(node), abs=1e-9)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_singular_system_raises_analog_error(self, backend):
        circuit = AnalogCircuit("conflict")
        circuit.vsource("V1", "a", "0", dc=1.0)
        circuit.vsource("V2", "a", "0", dc=2.0)  # contradictory source
        circuit.resistor("R1", "a", "0", 1000.0)
        with pytest.raises(AnalogError, match="singular"):
            MnaSolver(circuit, backend=backend).solve_dc()

    def test_transient_backends_agree(self):
        from repro.spice import TransientSolver, sine

        circuit = AnalogCircuit("rc")
        circuit.vsource("V1", "in", "0", dc=0.0)
        circuit.resistor("R1", "in", "out", 1000.0)
        circuit.capacitor("C1", "out", "0", 1e-6)
        waves = {"V1": sine(1.0, 500.0)}
        dense = TransientSolver(circuit, backend="dense").run(
            4e-3, 1e-5, waves
        )
        sparse = TransientSolver(circuit, backend="sparse").run(
            4e-3, 1e-5, waves
        )
        assert np.max(
            np.abs(dense.waveform("out") - sparse.waveform("out"))
        ) < 1e-9


class TestSolveMany:
    def _factorization(self, backend):
        circuit = rc_ladder(12)
        solver = MnaSolver(circuit, backend=backend)
        system, _, _ = solver._assemble(1.0e3)
        return resolve_backend(backend).factorize(system), system

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matches_column_at_a_time(self, backend):
        factorization, system = self._factorization(backend)
        rng = np.random.default_rng(42)
        block = rng.standard_normal(
            (system.size, 5)
        ) + 1j * rng.standard_normal((system.size, 5))
        stacked = factorization.solve_many(block)
        assert stacked.shape == block.shape
        for k in range(block.shape[1]):
            single = factorization.solve(block[:, k].copy())
            assert np.allclose(stacked[:, k], single, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_counters(self, backend):
        factorization, system = self._factorization(backend)
        assert factorization.stats() == {
            "solve_calls": 0,
            "multi_rhs_solves": 0,
            "multi_rhs_columns": 0,
        }
        factorization.solve(system.rhs)
        factorization.solve_many(np.zeros((system.size, 3), dtype=complex))
        factorization.solve_many(np.zeros((system.size, 2), dtype=complex))
        assert factorization.stats() == {
            "solve_calls": 1,
            "multi_rhs_solves": 2,
            "multi_rhs_columns": 5,
        }

    def test_base_class_default_falls_back_to_single_solves(self):
        from repro.spice.backends import LinearFactorization

        class Doubling(LinearFactorization):
            def _solve(self, rhs):
                return 2.0 * rhs

        factorization = Doubling()
        block = np.arange(8, dtype=complex).reshape(4, 2)
        assert np.array_equal(factorization.solve_many(block), 2.0 * block)
        empty = np.zeros((4, 0), dtype=complex)
        assert factorization.solve_many(empty).shape == (4, 0)
        assert factorization.stats()["multi_rhs_solves"] == 2
        assert factorization.stats()["multi_rhs_columns"] == 2


class TestFactorizationCache:
    """The solver caches no factorization; its only cache is the sparse
    backend's symbolic pattern, which no value edit can make stale."""

    def test_factorized_builds_a_fresh_system_each_call(self):
        circuit = bandpass_filter()
        solver = MnaSolver(circuit)
        first = solver.factorized(1.0e3)
        second = solver.factorized(1.0e3)
        assert first is not second
        assert first.solution().voltage("V1") == second.solution().voltage("V1")
        assert first.backend_name == "dense"

    def test_sparse_pattern_cache_shared_across_frequencies(self):
        circuit = rc_ladder(16)
        solver = MnaSolver(circuit, backend="sparse")
        for frequency in (1.0e3, 2.0e3, 5.0e3):
            solver.factorized(frequency)
        # All nonzero-frequency assemblies share one sparsity structure.
        assert len(solver._patterns) == 1


class TestSharedStamping:
    def test_assembler_allocates_branches_in_stamp_order(self):
        circuit = AnalogCircuit("rl")
        circuit.vsource("V1", "in", "0", dc=1.0)
        circuit.resistor("R1", "in", "out", 10.0)
        circuit.inductor("L1", "out", "0", 1e-3)
        assembler = SystemAssembler(
            {node: i for i, node in enumerate(circuit.nodes())}
        )
        for component in circuit.components:
            value = component.value if component.has_value else 0.0
            component.stamp(assembler, 0.0, value)
        assert assembler.branch_rows == {"V1": 2, "L1": 3}

    def test_dense_backend_is_default_for_small_circuits(self):
        solver = MnaSolver(bandpass_filter())
        assert isinstance(solver.backend, DenseBackend)
