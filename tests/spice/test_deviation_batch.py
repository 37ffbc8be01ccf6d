"""Differential suite: ``deviation_batch`` against a fresh re-solve.

:meth:`repro.spice.FactorizedMna.deviation_batch` is the one
Sherman–Morrison kernel: it executes a whole population's rank-one
updates as one multi-RHS solve plus vectorized numpy expressions.  Its
oracle is independent of it: a fresh :class:`~repro.spice.AcModel`
compile and solve of the state with the element deviated.  Both must
agree to 1e-9 on every circuit — with dense-fallback faults
deliberately mixed into the batch — because the campaign engine's
agreement with the ``reference`` engine rests on this equivalence.

The fast tests cover the small named filters plus a hypothesis sweep of
random ladders; the full registry grid (512-section ladders, dense *and*
sparse backends) is marked ``slow`` and runs next to the backend
differential suite.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import default_registry
from repro.circuits import bandpass_filter, chebyshev_filter, rc_ladder
from repro.spice import (
    VCCS,
    AcModel,
    AnalogCircuit,
    AnalogError,
    Component,
    FiniteOpAmp,
    MnaSolver,
    Resistor,
    Solution,
    VoltageSource,
)

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
        model = AcModel(
            circuit, None, deviations={element: deviation}, backend=backend
        )
        solution = Solution.of(model, model.solve(frequency), frequency)
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

    @pytest.mark.parametrize(
        "faults",
        [
            [("R4", -1.0)],  # alone: the per-fault route
            [("R2", 0.5), ("C3", 0.1), ("R4", -1.0)],  # in a mixed batch
            [("R2", 0.5), ("R4", -1.0), ("R6", 0.2)],  # in a port group
            [("R6", 0.2), ("R4", -2.5), ("R2", 0.5)],  # below −1
        ],
        ids=["alone", "batch", "port-group", "below"],
    )
    def test_non_positive_deviation_refused(self, faults, monkeypatch):
        # As deviation_state refuses it: an AnalogError naming the
        # element, raised before anything is stamped.
        factorized = MnaSolver(rc_ladder(8)).factorized(1.0e3)
        stamped = []
        original = AcModel.stamp_delta

        def spy(self, *args, **kwargs):
            stamped.append(args[0].name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AcModel, "stamp_delta", spy)
        with pytest.raises(AnalogError, match="'R4' non-positive"):
            factorized.deviation_batch(faults, "out")
        assert stamped == []
        assert factorized.cached_directions == 0

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
        voltages = factorized.deviation_batch(faults, node)
        assert calls["n"] >= 2  # the patch actually mixed routes
        _assert_matches_fresh(circuit, faults, voltages, node, 2.5e3)

    def test_unrecognized_rank_one_shape_takes_dense_fallback(self):
        # A two-terminal element whose stamp Δg·[[1, −1], [−2, 2]] is
        # rank one, u = (1, −2), but not the ±admittance pattern
        # _factor_delta recognizes: its faults are solved densely inside
        # the batch, and still agree with a fresh solve.
        class Skewed(Resistor):
            def stamp(self, ctx, s, value):
                i, j = ctx.index(self.n1), ctx.index(self.n2)
                g = 1.0 / value
                ctx.add(i, i, g)
                ctx.add(i, j, -g)
                ctx.add(j, i, -2.0 * g)
                ctx.add(j, j, 2.0 * g)

        circuit = AnalogCircuit("skewed")
        circuit.vsource("Vin", "in", "0", dc=1.0, ac=1.0)
        circuit.resistor("R1", "in", "a", 1000.0)
        circuit.add(Skewed("RX", "a", "b", 2200.0))
        circuit.resistor("R2", "b", "0", 4700.0)
        circuit.capacitor("C1", "b", "0", 1e-8)
        faults = [("RX", -0.5), ("R1", 0.25), ("RX", 0.3), ("C1", 2.0)]
        for frequency in (0.0, 2.5e3):
            factorized = MnaSolver(circuit).factorized(frequency)
            entries, _ = factorized._stamp_delta("RX", 0.3)
            assert factorized._factor_delta(entries) is None
            patched = []
            original = factorized._patched_solve

            def spy(entries, original=original):
                patched.append(entries)
                return original(entries)

            factorized._patched_solve = spy
            voltages = factorized.deviation_batch(faults, "b")
            assert len(patched) == 2  # the two RX faults, and only those
            _assert_matches_fresh(circuit, faults, voltages, "b", frequency)

    def test_rhs_stamping_component_rejected(self):
        # A value-carrying element whose stamp also drives the right-hand
        # side (a leaky current injection scaled by its value) cannot be
        # patched with a matrix-only update.
        @dataclasses.dataclass
        class Leaky(Component):
            node: str = "0"
            value: float = 1.0

            def stamp(self, ctx, s, value):
                i = ctx.index(self.node)
                ctx.add(i, i, 1.0 / value)
                ctx.rhs(i, 1.0e-3 / value)

        circuit, _ = self._factorized()
        circuit.add(Leaky("X1", _observed_node(circuit), 1.0e4))
        factorized = MnaSolver(circuit).factorized(1.0e3)
        with pytest.raises(AnalogError, match="right-hand side"):
            factorized.deviation_batch(
                [("R1", 0.5), ("X1", 0.5)], _observed_node(circuit)
            )


class TestUpdatePorts:
    """Faults of resistors, capacitors and VCCSs go through update ports:
    one array stamp per group of elements that stamp alike."""

    def test_vccs_stamped_by_different_calls_are_grouped_apart(self):
        # Gp's one entry comes from the first add call of its stamp
        # (+g), Gn's from the second (−g); both sit below the diagonal.
        # Grouped together, one array stamp would give Gn Gp's sign.
        circuit = AnalogCircuit("vccs-calls")
        circuit.vsource("Vin", "in", "0", dc=1.0, ac=1.0)
        circuit.resistor("R1", "in", "a", 1000.0)
        circuit.resistor("Ra", "a", "0", 2200.0)
        circuit.resistor("Rb", "b", "0", 3300.0)
        circuit.resistor("Rc", "c", "0", 4700.0)
        circuit.add(VCCS("Gp", "b", "0", "a", "0", 1.0e-4))
        circuit.add(VCCS("Gn", "c", "0", "0", "a", 1.0e-4))
        faults = [("Gp", -0.5), ("Gn", -0.5), ("Gp", 0.25), ("Gn", 0.25)]
        factorized = MnaSolver(circuit).factorized(1.0e3)
        for node in ("b", "c"):
            voltages = factorized.deviation_batch(faults, node)
            _assert_matches_fresh(circuit, faults, voltages, node, 1.0e3)

    def test_factorizations_share_one_compile(self):
        circuit = bandpass_filter()
        _drive(circuit)
        solver = MnaSolver(circuit)
        frequencies = [0.0, 1.0e3, 2.5e3]
        shared = solver.factorizations(frequencies)
        assert len({id(factorized.model) for factorized in shared}) == 1
        node = _observed_node(circuit)
        faults = _population(circuit)
        for frequency, factorized in zip(frequencies, shared):
            alone = solver.factorized(frequency)
            assert factorized.solution().voltage(node) == alone.solution(
            ).voltage(node)
            assert (
                factorized.deviation_batch(faults, node).tolist()
                == alone.deviation_batch(faults, node).tolist()
            )
        assert solver.factorizations([]) == []


def _random_ladder(
    rng: random.Random, stages: int
) -> tuple[AnalogCircuit, str]:
    """A random RC ladder, now and then with a VCCS (in the single-row,
    2×2 or single-column shape), a shunt inductor or a finite-gain
    buffer: its faults mix ported and per-fault routes in one batch.
    Returns the circuit and its last node."""
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
        extra = rng.random()
        gm = 10.0 ** rng.uniform(-6.0, -5.0)
        if extra < 0.08:
            circuit.add(VCCS(f"Gr{index}", node, "0", previous, "0", gm))
        elif extra < 0.16:
            circuit.add(VCCS(f"Gd{index}", node, previous, previous, node, gm))
        elif extra < 0.24:
            circuit.add(VCCS(f"Gc{index}", node, previous, previous, "0", gm))
        elif extra < 0.32:
            circuit.inductor(
                f"L{index}", node, "0", 10.0 ** rng.uniform(-3.0, -1.0)
            )
        elif extra < 0.40:
            buffered = f"b{index + 1}"
            circuit.add(FiniteOpAmp(f"A{index}", node, buffered, buffered))
            node = buffered
        previous = node
    return circuit, previous


class TestRandomLadderProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        stages=st.integers(min_value=1, max_value=12),
        frequency=st.sampled_from([0.0, 1.0e3, 5.0e4]),
    )
    def test_batch_matches_fresh_solve(self, seed, stages, frequency):
        rng = random.Random(seed)
        circuit, node = _random_ladder(rng, stages)
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
