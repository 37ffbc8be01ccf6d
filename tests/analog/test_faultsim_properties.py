"""Property-based checks of the factorized fault-simulation substrate.

Seeded :class:`random.Random` generators (no extra dependencies) build
randomized ladder netlists and deviation draws, and assert the two
load-bearing invariants of the fast campaign engine:

* a Sherman–Morrison rank-one update of the factorized system equals a
  full re-assembled dense solve of the deviated circuit;
* a factorization is built from the circuit as it is when asked for,
  and neither a deviation state nor driving the source at unit
  amplitude ever writes the circuit.
"""

import random

import pytest

from repro.core.fingerprint import analog_fingerprint
from repro.spice import (
    AcModel,
    AnalogCircuit,
    AnalogError,
    MnaSolver,
    Solution,
)


def random_ladder(rng: random.Random, stages: int) -> tuple[AnalogCircuit, str]:
    """A solvable random RLC ladder driven by a unit source."""
    circuit = AnalogCircuit(f"ladder-{stages}-{rng.randrange(1 << 30)}")
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
        if rng.random() < 0.3:
            circuit.inductor(
                f"L{index}", node, "0", 10.0 ** rng.uniform(-3.0, -1.0)
            )
        previous = node
    return circuit, previous


class TestRankOneUpdateProperty:
    def test_rank_one_update_equals_reassembled_solve(self):
        rng = random.Random(20260730)
        for _ in range(12):
            circuit, _ = random_ladder(rng, stages=rng.randint(2, 5))
            solver = MnaSolver(circuit)
            elements = circuit.element_names()
            for _ in range(4):
                frequency = rng.choice(
                    [0.0, 10.0 ** rng.uniform(0.0, 6.0)]
                )
                element = rng.choice(elements)
                deviation = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.9)
                factorized = solver.factorized(frequency)
                model = AcModel(circuit, None, deviations={element: deviation})
                full = Solution.of(model, model.solve(frequency), frequency)
                for node in full.nodes():
                    fast = factorized.deviation_batch(
                        [(element, deviation)], node
                    )[0]
                    assert fast == pytest.approx(
                        full.voltage(node), rel=1e-9, abs=1e-9
                    )

    def test_factorized_matches_solve(self):
        rng = random.Random(7)
        circuit, _ = random_ladder(rng, stages=3)
        solver = MnaSolver(circuit)
        for frequency in [0.0, 1e3, 1e3, 5e4, 1e3]:
            solution = solver.factorized(frequency).solution()
            fresh = MnaSolver(circuit).solve(frequency)
            for node in fresh.nodes():
                assert solution.voltage(node) == pytest.approx(
                    fresh.voltage(node), rel=1e-12, abs=1e-12
                )

    def test_factorized_sees_state_edits(self):
        # A reused solver must never serve an LU of an earlier circuit
        # state after a nominal value is edited (which a cache keyed on
        # the deviation state missed).
        from repro.api import Workbench

        circuit = Workbench().session().circuit("fig4").analog
        solver = MnaSolver(circuit, source="Vin")
        nominal = solver.factorized(1e3).solution()
        circuit.component("Rg").value *= 2.0
        edited = solver.factorized(1e3).solution()
        fresh = MnaSolver(circuit, source="Vin").factorized(1e3).solution()
        assert edited._voltages == fresh._voltages
        assert edited._voltages != nominal._voltages

    def test_zero_deviation_returns_baseline(self):
        rng = random.Random(5)
        circuit, output = random_ladder(rng, stages=2)
        factorized = MnaSolver(circuit).factorized(1e3)
        assert factorized.deviation_batch(
            [("Rs0", 0.0)], output
        )[0] == factorized.solution().voltage(output)


class TestCircuitIsOnlyRead:
    """A deviation state is an argument: solving at one, failing at one
    or being refused one leaves the circuit exactly as it was."""

    def _random_deviations(self, rng, circuit):
        elements = circuit.element_names()
        chosen = rng.sample(elements, k=min(3, len(elements)))
        return {
            name: rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9)
            for name in chosen
        }

    def _values(self, circuit):
        return [(n, circuit.nominal_value(n)) for n in circuit.element_names()]

    def test_deviated_solves_leave_the_circuit(self):
        rng = random.Random(11)
        for _ in range(8):
            circuit, output = random_ladder(rng, stages=rng.randint(2, 4))
            before = (analog_fingerprint(circuit), self._values(circuit))
            nominal = MnaSolver(circuit).solve(1e3).voltage(output)
            deviations = self._random_deviations(rng, circuit)
            model = AcModel(circuit, None, output, deviations)
            model.solve(1e3)
            MnaSolver(circuit).factorized(1e3).deviation_batch(
                list(deviations.items()), output
            )
            assert (analog_fingerprint(circuit), self._values(circuit)) == before
            assert MnaSolver(circuit).solve(1e3).voltage(output) == nominal

    def test_failure_inside_a_deviated_solve_leaves_the_circuit(self):
        # The campaign's failure mode: a solve at a deviated state
        # blows up.
        rng = random.Random(13)
        for _ in range(8):
            circuit, _ = random_ladder(rng, stages=rng.randint(2, 4))
            deviations = self._random_deviations(rng, circuit)
            circuit.vsource("Vshort", "n1", "n1")  # a singular system
            before = (analog_fingerprint(circuit), self._values(circuit))
            with pytest.raises(AnalogError, match="singular"):
                AcModel(circuit, None, deviations=deviations).solve(1e3)
            assert (analog_fingerprint(circuit), self._values(circuit)) == before

    def test_refused_state_leaves_the_circuit(self):
        # A state is validated whole before anything reads it (unknown
        # element, or a deviation that would drive a value non-positive),
        # so a valid entry before the bad one cannot leak.
        rng = random.Random(17)
        circuit, output = random_ladder(rng, stages=3)
        before = (analog_fingerprint(circuit), self._values(circuit))
        nominal = AcModel(circuit, None, output).solve(1e3)
        for bad in ({"Rs0": 0.4, "NOPE": 0.1}, {"Rs0": 0.4, "Rs1": -1.5}):
            with pytest.raises(AnalogError):
                AcModel(circuit, None, output, bad)
            with pytest.raises(AnalogError):
                circuit.deviation_state(bad)
            assert (analog_fingerprint(circuit), self._values(circuit)) == before
        assert (AcModel(circuit, None, output).solve(1e3) == nominal).all()

    def test_states_do_not_layer(self):
        # Each state is relative to nominal: a state measured earlier
        # leaves nothing behind for the next one to sit on.
        rng = random.Random(19)
        circuit, output = random_ladder(rng, stages=3)
        fresh, _ = random_ladder(random.Random(19), stages=3)
        AcModel(circuit, None, output, {"Rs0": 0.25}).solve(1e3)
        second = {"Rs0": -0.5, "Rs1": 0.1}
        assert (
            AcModel(circuit, None, output, second).solve(1e3)
            == AcModel(fresh, None, output, second).solve(1e3)
        ).all()
        assert circuit.effective_value("Rs0", second) == (
            circuit.nominal_value("Rs0") * 0.5
        )

    def test_unit_source_restores_on_failure(self):
        # The factorized engine drives the source at unit amplitude for
        # its whole run.  The drive is a stamped copy of the source, so
        # the levels are never written — a failing solve included.
        rng = random.Random(23)
        circuit, _ = random_ladder(rng, stages=2)
        circuit.vsource("Vshort", "n1", "n1")  # a singular system
        source = circuit.component("Vin")
        source.ac, source.dc = 0.7, 2.5
        solver = MnaSolver(circuit, source="Vin")
        with pytest.raises(AnalogError, match="singular"):
            solver.factorized(1e3)
        assert (source.ac, source.dc) == (0.7, 2.5)
        with pytest.raises(AnalogError, match="not a voltage source"):
            MnaSolver(circuit, source="Rs0")


class TestDrawFaultsClampedSeverity:
    """A clamped fault's severity reflects the deviation actually injected."""

    class _Testable:
        def __init__(self, element, ed_percent):
            self.element = element
            self.ed_percent = ed_percent

    def test_clamped_fault_recomputes_severity(self):
        from repro.analog.faultsim import draw_faults

        # ed = 80 %: a negative draw at severity ≥ 1.1875 crosses the
        # −0.95 clamp, so with the (2.0, 3.0) range every negative draw
        # is clamped and must report severity 0.95 / 0.80 exactly.
        testable = [self._Testable("R1", 80.0)]
        faults = draw_faults(testable, 64, (2.0, 3.0), random.Random(99))
        clamped = [f for f in faults if f.deviation == -0.95]
        assert clamped, "seed produced no negative draws?"
        for fault in clamped:
            assert fault.severity == abs(fault.deviation) / 0.80
        # Unclamped (positive) draws keep their drawn severity range.
        for fault in faults:
            if fault.deviation > 0:
                assert 2.0 <= fault.severity <= 3.0

    def test_rng_stream_unchanged_by_clamp(self):
        from repro.analog.faultsim import draw_faults

        # The clamp consumes no RNG draws: element/deviation streams
        # for a clamp-free population are identical to the historical
        # contract whatever the severity bookkeeping does.
        testable = [self._Testable("R1", 1.0), self._Testable("C2", 2.0)]
        first = draw_faults(testable, 5, (0.5, 3.0), random.Random(11))
        second = draw_faults(testable, 5, (0.5, 3.0), random.Random(11))
        assert [(f.element, f.deviation, f.severity) for f in first] == [
            (f.element, f.deviation, f.severity) for f in second
        ]
        assert all(f.deviation > -0.95 for f in first)  # no clamps here


class TestUnknownDigitalEngine:
    @pytest.mark.parametrize("n_faults", [0, 4], ids=["empty", "faults"])
    def test_refused_before_any_work(self, n_faults):
        """A misspelt engine name is an error, not the reference
        interpreter under another name, whether or not there are faults
        to inject."""
        from repro.analog.faultsim import FactorizedEngine
        from repro.api import CampaignConfig, Workbench
        from repro.core.campaign import draw_population

        session = Workbench().session()
        mixed = session.circuit("fig4")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report
        steps, faults = draw_population(
            report, CampaignConfig(faults_per_element=1, seed=3)
        )
        engine = FactorizedEngine()
        with pytest.raises(
            ValueError,
            match="unknown digital fault-simulation engine 'compild'",
        ):
            engine.run(
                mixed, steps, faults[:n_faults], digital_engine="compild"
            )
        assert engine.last_diagnostics is None


class TestEmptyPopulationDiagnostics:
    def test_factorized_engine_emits_full_shape(self):
        from repro.analog.faultsim import FactorizedEngine

        engine = FactorizedEngine()
        outcomes = engine.run(object(), [], [], digital_engine="reference")
        assert outcomes == []
        diagnostics = engine.last_diagnostics
        # The exact key set every non-empty run carries: artifact and
        # service consumers key into these without guards.
        assert set(diagnostics) == {
            "engine",
            "digital_engine",
            "batched_gains",
            "backend",
            "factorizations",
            "solve_calls",
            "multi_rhs_solves",
            "multi_rhs_columns",
        }
        assert diagnostics["engine"] == "factorized"
        assert diagnostics["digital_engine"] == "reference"
        assert diagnostics["backend"] is None
        assert diagnostics["factorizations"] == 0
