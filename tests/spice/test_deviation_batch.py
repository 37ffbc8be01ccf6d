"""Differential suite: ``deviation_batch`` against a fresh re-solve.

:meth:`repro.spice.FactorizedMna.deviation_batch` is the one
Sherman–Morrison kernel: it executes a whole population's rank-one
updates as one multi-RHS solve plus vectorized numpy expressions.  Its
oracle is independent of it: a fresh :class:`~repro.spice.MnaSolver`
solve of the circuit with the element actually deviated.  Both must
agree to 1e-9 on every circuit — with rank-≥2/dense-fallback faults
deliberately mixed into the batch — because the campaign engine's
agreement with the ``reference`` engine rests on this equivalence.

The fast tests cover the small named filters plus a hypothesis sweep of
random ladders; the full registry grid (512-section ladders, dense *and*
sparse backends) is marked ``slow`` and runs next to the backend
differential suite.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import default_registry
from repro.circuits import bandpass_filter, chebyshev_filter, rc_ladder
from repro.spice import AnalogCircuit, AnalogError, MnaSolver, VoltageSource

#: |batch − fresh solve| bound, the solver-level tolerance of the
#: engine differential suite.
TOLERANCE = 1e-9


def _drive(circuit) -> None:
    for component in circuit.components:
        if isinstance(component, VoltageSource):
            component.ac, component.dc = 1.0, 1.0
            return
    raise AssertionError(f"no source in {circuit.name}")


def _observed_node(circuit) -> str:
    return sorted(node for node in circuit.nodes() if node != "0")[-1]


def _population(circuit, deviations=(-0.5, -0.05, 0.25, 2.0)):
    return [
        (element, deviation)
        for element in circuit.element_names()
        for deviation in deviations
    ]


def _assert_matches_fresh(circuit, faults, voltages, node, frequency,
                          backend="dense"):
    """Check each batch voltage against the oracle: a fresh solve of the
    circuit with that fault's element deviated."""
    assert voltages.shape == (len(faults),)
    for (element, deviation), voltage in zip(faults, voltages):
        with circuit.with_deviations({element: deviation}):
            solution = MnaSolver(circuit, backend=backend).solve(frequency)
        assert voltage == pytest.approx(
            solution.voltage(node), rel=TOLERANCE, abs=TOLERANCE
        )


class TestSmallCircuits:
    CIRCUITS = {
        "bandpass": bandpass_filter,
        "chebyshev": chebyshev_filter,
        "rc-ladder-16": lambda: rc_ladder(16),
    }

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("frequency", [0.0, 2.5e3])
    def test_batch_matches_fresh_solve(self, name, frequency, backend):
        circuit = self.CIRCUITS[name]()
        _drive(circuit)
        node = _observed_node(circuit)
        faults = _population(circuit)
        factorized = MnaSolver(circuit, backend=backend).factorized(frequency)
        voltages = factorized.deviation_batch(faults, node)
        _assert_matches_fresh(
            circuit, faults, voltages, node, frequency, backend
        )

    def test_batches_of_one_match_fresh_solve(self):
        # The engine's tail gains are batches of one on a factorization
        # whose direction cache an earlier batch already seeded.
        circuit = bandpass_filter()
        _drive(circuit)
        node = _observed_node(circuit)
        faults = _population(circuit)
        factorized = MnaSolver(circuit).factorized(2.5e3)
        factorized.deviation_batch(faults[::2], node)
        voltages = np.concatenate(
            [factorized.deviation_batch([fault], node) for fault in faults]
        )
        _assert_matches_fresh(circuit, faults, voltages, node, 2.5e3)


class TestBatchSemantics:
    def _factorized(self, frequency=1.0e3):
        circuit = bandpass_filter()
        _drive(circuit)
        return circuit, MnaSolver(circuit).factorized(frequency)

    def test_empty_batch(self):
        circuit, factorized = self._factorized()
        voltages = factorized.deviation_batch([], _observed_node(circuit))
        assert voltages.shape == (0,) and voltages.dtype == complex

    def test_ground_node_is_zero(self):
        circuit, factorized = self._factorized()
        element = circuit.element_names()[0]
        voltages = factorized.deviation_batch([(element, 0.5)], "0")
        assert voltages[0] == 0.0 + 0.0j

    def test_unknown_node_rejected(self):
        circuit, factorized = self._factorized()
        element = circuit.element_names()[0]
        with pytest.raises(AnalogError, match="no node named"):
            factorized.deviation_batch([(element, 0.5)], "nope")

    def test_baseline_equal_stamp_returns_base_voltage(self):
        # A capacitor at DC stamps nothing: the batch must return the
        # baseline voltage exactly.
        circuit = AnalogCircuit("rc")
        circuit.vsource("Vin", "in", "0", dc=1.0, ac=1.0)
        circuit.resistor("R1", "in", "out", 1000.0)
        circuit.capacitor("C1", "out", "0", 1e-9)
        factorized = MnaSolver(circuit).factorized(0.0)
        voltages = factorized.deviation_batch([("C1", 0.5), ("R1", 0.5)], "out")
        assert voltages[0] == factorized.solution().voltage("out")
        assert voltages[1] != voltages[0]

    def test_one_multi_rhs_solve_and_cache_seeding(self):
        circuit, factorized = self._factorized()
        node = _observed_node(circuit)
        faults = _population(circuit)
        factorized.deviation_batch(faults, node)
        stats = factorized.solve_stats()
        assert stats["multi_rhs_solves"] == 1
        assert stats["multi_rhs_columns"] >= 1
        # The batch seeded the per-direction cache: re-running the same
        # population, one fault at a time, triggers no further
        # triangular solves for fixed (value-independent) directions.
        voltages = np.concatenate(
            [factorized.deviation_batch([fault], node) for fault in faults]
        )
        after = factorized.solve_stats()
        assert after == stats
        _assert_matches_fresh(circuit, faults, voltages, node, 1.0e3)

    def test_dense_fallback_faults_mixed_into_batch(self, monkeypatch):
        # Defeat rank-one factoring for every other classified fault:
        # those must route through the per-fault dense patched solve
        # *inside* the batch and still agree with a fresh solve.
        circuit, factorized = self._factorized(2.5e3)
        node = _observed_node(circuit)
        faults = _population(circuit)

        calls = {"n": 0}
        original_factor = type(factorized)._factor_delta

        def flaky_factor(self, entries):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                return None
            return original_factor(self, entries)

        monkeypatch.setattr(factorized, "_factor_delta", flaky_factor.__get__(factorized))
        monkeypatch.setattr(
            factorized, "_factor_delta_svd", lambda entries: None
        )
        voltages = factorized.deviation_batch(faults, node)
        assert calls["n"] >= 2  # the patch actually mixed routes
        _assert_matches_fresh(circuit, faults, voltages, node, 2.5e3)

    def test_rhs_stamping_component_rejected(self):
        circuit, factorized = self._factorized()
        element = circuit.element_names()[0]

        def fake_stamp(el, deviation):
            return {}, True  # pretend the component re-stamped the RHS

        factorized._stamp_delta = fake_stamp
        with pytest.raises(AnalogError, match="right-hand side"):
            factorized.deviation_batch([(element, 0.5)], _observed_node(circuit))


def _random_ladder(rng: random.Random, stages: int) -> AnalogCircuit:
    circuit = AnalogCircuit(f"hyp-ladder-{stages}")
    circuit.vsource("Vin", "n0", "0", dc=1.0, ac=1.0)
    previous = "n0"
    for index in range(stages):
        node = f"n{index + 1}"
        circuit.resistor(
            f"Rs{index}", previous, node, 10.0 ** rng.uniform(2.0, 5.0)
        )
        if rng.random() < 0.8:
            circuit.capacitor(
                f"C{index}", node, "0", 10.0 ** rng.uniform(-9.0, -7.0)
            )
        if rng.random() < 0.5:
            circuit.resistor(
                f"Rp{index}", node, "0", 10.0 ** rng.uniform(3.0, 6.0)
            )
        previous = node
    return circuit


class TestRandomLadderProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        stages=st.integers(min_value=1, max_value=12),
        frequency=st.sampled_from([0.0, 1.0e3, 5.0e4]),
    )
    def test_batch_matches_fresh_solve(self, seed, stages, frequency):
        rng = random.Random(seed)
        circuit = _random_ladder(rng, stages)
        node = f"n{stages}"
        faults = _population(circuit, deviations=(-0.6, 0.3))
        voltages = MnaSolver(circuit).factorized(frequency).deviation_batch(
            faults, node
        )
        _assert_matches_fresh(circuit, faults, voltages, node, frequency)


@pytest.mark.slow
class TestRegistryGrid:
    """Every registry analog circuit, dense and sparse, batch == fresh."""

    NAMES = [spec.name for spec in default_registry().specs("analog")]

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", NAMES)
    def test_batch_matches_fresh_solve(self, name, backend):
        registry = default_registry()
        circuit = registry.build(name)
        _drive(circuit)
        node = _observed_node(circuit)
        elements = circuit.element_names()
        if len(elements) > 96:
            # Deterministic subsample keeps the 512-section ladders
            # tractable while still batching ~200 distinct directions.
            elements = elements[:: max(1, len(elements) // 96)]
        faults = [
            (element, deviation)
            for element in elements
            for deviation in (-0.5, 0.25)
        ]
        factorized = MnaSolver(circuit, backend=backend).factorized(1.0e3)
        voltages = factorized.deviation_batch(faults, node)
        _assert_matches_fresh(circuit, faults, voltages, node, 1.0e3, backend)
