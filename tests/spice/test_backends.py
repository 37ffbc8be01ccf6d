"""Tests of the pluggable linear-system backends (dense vs sparse)."""

import numpy as np
import pytest

from repro.circuits import (
    LADDER_OUTPUT,
    LADDER_SOURCE,
    bandpass_filter,
    chebyshev_filter,
    rc_ladder,
)
from repro.spice import (
    AcModel,
    AnalogCircuit,
    AnalogError,
    DenseBackend,
    MnaSolver,
    SPARSE_AUTO_THRESHOLD,
    SparseBackend,
    SparsityPattern,
    SystemAssembler,
    resolve_backend,
    sweep,
)
from repro.spice.backends import DENSE_LU_THRESHOLD


def conflicting_sources() -> AnalogCircuit:
    circuit = AnalogCircuit("conflict")
    circuit.vsource("V1", "a", "0", dc=1.0)
    circuit.vsource("V2", "a", "0", dc=2.0)  # contradictory source
    circuit.resistor("R1", "a", "0", 1000.0)
    return circuit


def nan_entry() -> AnalogCircuit:
    """No zero pivot but a NaN one: the factorization's pivot check must
    still reject it there, not hand NaNs to every later solve."""
    circuit = AnalogCircuit("nan")
    circuit.vsource("V1", "a", "0", dc=1.0)
    circuit.resistor("R1", "a", "0", float("nan"))
    return circuit


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
        return AcModel(circuit, None).system(0.0)

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

    def test_rc_ladder_512_transfer_sweep_agrees(self):
        # The 513-node ladder: dense and sparse transfer sweeps agree
        # within 1e-9 at every frequency.
        circuit = rc_ladder(512)
        frequencies = list(np.logspace(1.0, 6.0, 6))
        dense, sparse = (
            sweep(circuit, LADDER_SOURCE, LADDER_OUTPUT, frequencies, backend)
            for backend in ("dense", "sparse")
        )
        pairs = zip(dense.transfer_values, sparse.transfer_values)
        assert max(abs(a - b) for a, b in pairs) < 1e-9

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
    @pytest.mark.parametrize(
        "build, solve",
        [
            (conflicting_sources, lambda solver: solver.solve_dc()),
            (nan_entry, lambda solver: solver.factorized(0.0)),
        ],
        ids=["conflicting-sources", "nan-entry"],
    )
    def test_singular_system_raises_analog_error(self, backend, build, solve):
        solver = MnaSolver(build(), backend=backend)
        with pytest.raises(AnalogError, match="singular"):
            solve(solver)

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
        system = AcModel(circuit, None, backend=backend).system(1.0e3)
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


class TestDenseFactorization:
    """A dense factorization below ``DENSE_LU_THRESHOLD`` unknowns keeps
    the matrix and solves it with numpy's ``gesv``; from there up it
    keeps scipy LU factors.  Both check pivots when they are built."""

    #: ladder sections giving one unknown below / exactly at the
    #: threshold (``rc_ladder(n)`` has ``n + 1`` nodes and one branch).
    BELOW = DENSE_LU_THRESHOLD - 3
    AT = DENSE_LU_THRESHOLD - 2

    @staticmethod
    def _system(sections):
        circuit = rc_ladder(sections)
        return AcModel(circuit, None, backend="dense").system(1.0e3)

    def test_threshold_sits_above_every_paper_circuit(self):
        from repro.api.registry import default_registry

        registry = default_registry()
        names = registry.names("mixed") + [
            "bandpass", "chebyshev", "state-variable",
        ]
        for name in names:
            circuit = registry.build(name)
            analog = getattr(circuit, "analog", circuit)
            size = AcModel(analog, None).system(1.0e3).size
            assert size < DENSE_LU_THRESHOLD, name

    def test_below_threshold_solves_with_numpy_gesv(self):
        system = self._system(self.BELOW)
        assert system.size == DENSE_LU_THRESHOLD - 1
        factorization = DenseBackend().factorize(system)
        matrix = system.to_dense()
        block = np.stack([system.rhs, 2.0j * system.rhs], axis=1)
        assert np.array_equal(
            factorization.solve(system.rhs),
            np.linalg.solve(matrix, system.rhs),
        )
        assert np.array_equal(
            factorization.solve_many(block), np.linalg.solve(matrix, block)
        )

    def test_at_threshold_solves_with_kept_lu_factors(self):
        from scipy.linalg import lu_factor, lu_solve

        system = self._system(self.AT)
        assert system.size == DENSE_LU_THRESHOLD
        factorization = DenseBackend().factorize(system)
        lu = lu_factor(system.to_dense())
        block = np.stack([system.rhs, 2.0j * system.rhs], axis=1)
        assert np.array_equal(
            factorization.solve(system.rhs), lu_solve(lu, system.rhs)
        )
        stacked = factorization.solve_many(block)
        assert np.array_equal(stacked, lu_solve(lu, block))
        assert np.allclose(
            stacked, np.linalg.solve(system.to_dense(), block),
            rtol=1e-12, atol=1e-12,
        )
        assert factorization.stats()["multi_rhs_columns"] == 2

    @pytest.mark.parametrize(
        "extra",
        [
            lambda c: c.vsource("V2", "in", "0", dc=2.0),
            lambda c: c.resistor("RNAN", "out", "0", float("nan")),
        ],
        ids=["conflicting-sources", "nan-entry"],
    )
    def test_singular_system_raises_at_factorization_above_threshold(
        self, extra
    ):
        circuit = rc_ladder(self.AT)
        extra(circuit)
        solver = MnaSolver(circuit, backend="dense")
        with pytest.raises(AnalogError, match="singular"):
            solver.factorized(0.0)

    def test_transient_above_threshold_agrees_with_sparse(self):
        from repro.spice import TransientSolver, sine

        circuit = rc_ladder(64)
        waves = {"Vin": sine(1.0, 2.5e3)}
        dense = TransientSolver(circuit, backend="dense").run(
            2e-4, 1e-6, waves
        )
        sparse = TransientSolver(circuit, backend="sparse").run(
            2e-4, 1e-6, waves
        )
        assert np.max(
            np.abs(dense.waveform("out") - sparse.waveform("out"))
        ) < 1e-9


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
