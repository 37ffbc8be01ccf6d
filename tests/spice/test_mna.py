"""Tests of the MNA solver against hand-solvable circuits."""

import math

import numpy as np
import pytest

from repro.spice import (
    VCCS,
    AcModel,
    AnalogCircuit,
    AnalogError,
    MnaSolver,
    Solution,
)


class TestDc:
    def test_voltage_divider(self):
        c = AnalogCircuit("divider")
        c.vsource("V1", "in", "0", dc=10.0)
        c.resistor("R1", "in", "mid", 1000.0)
        c.resistor("R2", "mid", "0", 3000.0)
        solution = MnaSolver(c).solve_dc()
        assert solution.voltage("mid").real == pytest.approx(7.5)

    def test_current_source_into_resistor(self):
        c = AnalogCircuit("cs")
        c.isource("I1", "0", "n", dc=0.001)  # 1 mA into n
        c.resistor("R1", "n", "0", 2000.0)
        solution = MnaSolver(c).solve_dc()
        assert solution.voltage("n").real == pytest.approx(2.0)

    def test_capacitor_open_at_dc(self):
        c = AnalogCircuit("rc")
        c.vsource("V1", "in", "0", dc=5.0)
        c.resistor("R1", "in", "out", 1000.0)
        c.capacitor("C1", "out", "0", 1e-6)
        solution = MnaSolver(c).solve_dc()
        assert solution.voltage("out").real == pytest.approx(5.0)

    def test_inductor_short_at_dc(self):
        c = AnalogCircuit("rl")
        c.vsource("V1", "in", "0", dc=5.0)
        c.resistor("R1", "in", "out", 1000.0)
        c.inductor("L1", "out", "0", 1e-3)
        solution = MnaSolver(c).solve_dc()
        assert abs(solution.voltage("out")) < 1e-6
        # Branch current flows n1 -> n2 through the device: 5 V / 1 kΩ.
        assert abs(solution.branch_current("L1").real) == pytest.approx(0.005)

    def test_vsource_branch_current(self):
        c = AnalogCircuit("loop")
        c.vsource("V1", "in", "0", dc=10.0)
        c.resistor("R1", "in", "0", 1000.0)
        solution = MnaSolver(c).solve_dc()
        # MNA convention: branch current flows plus -> minus inside.
        assert abs(solution.branch_current("V1")) == pytest.approx(0.01)


def divider() -> AnalogCircuit:
    c = AnalogCircuit("divider")
    c.vsource("V1", "in", "0", dc=10.0, ac=1.0)
    c.resistor("R1", "in", "mid", 1000.0)
    c.resistor("R2", "mid", "0", 3000.0)
    return c


class TestBackendChoice:
    @pytest.mark.parametrize("backend", ["auto", "dense", "sparse"])
    def test_operating_point(self, backend):
        solver = MnaSolver(divider(), backend=backend)
        assert solver.solve_dc().voltage("mid").real == pytest.approx(7.5)

    def test_solver_names_its_backend(self):
        assert MnaSolver(divider(), backend="sparse").backend.name == "sparse"
        assert MnaSolver(divider()).backend.name == "dense"

    def test_factorization_walks_the_netlist_once(self, monkeypatch):
        """``auto`` resolves from the compiled model's node index: the
        solver does not walk ``nodes()`` a second time for it."""
        from repro.circuits.ladders import LADDER_SOURCE, rc_ladder

        circuit = rc_ladder(200)
        walks = []
        original = AnalogCircuit.nodes

        def counted(self):
            walks.append(self.name)
            return original(self)

        monkeypatch.setattr(AnalogCircuit, "nodes", counted)
        solver = MnaSolver(circuit, source=LADDER_SOURCE)
        factorized = solver.factorized(1.0e3)
        assert len(walks) == 1
        assert solver.backend.name == factorized.backend_name == "sparse"
        assert len(walks) == 1

    def test_unknown_backend_is_refused_at_construction(self):
        with pytest.raises(AnalogError, match="unknown linear-system"):
            MnaSolver(divider(), backend="bogus")


class TestAc:
    def test_as_built_levels_without_a_source(self):
        # No measured source: the circuit's own ac levels drive it.
        solver = MnaSolver(divider())
        magnitudes = [solver.solve(f).magnitude("mid") for f in (100.0, 200.0)]
        assert magnitudes == pytest.approx([0.75, 0.75])

    def test_unit_driven_solve_leaves_source_untouched(self):
        circuit = divider()
        source = circuit.component("V1")
        source.ac = 0.25
        solver = MnaSolver(circuit, source="V1")
        magnitudes = [solver.solve(f).magnitude("mid") for f in (0.0, 100.0)]
        assert magnitudes == pytest.approx([0.75, 0.75])
        assert (source.ac, source.dc) == (0.25, 10.0)

    def test_rc_low_pass_at_corner(self):
        c = AnalogCircuit("rc")
        c.vsource("V1", "in", "0", ac=1.0)
        c.resistor("R1", "in", "out", 1000.0)
        c.capacitor("C1", "out", "0", 1e-6)
        f_corner = 1.0 / (2 * math.pi * 1000.0 * 1e-6)
        solution = MnaSolver(c).solve(f_corner)
        assert abs(solution.voltage("out")) == pytest.approx(
            1 / math.sqrt(2), rel=1e-6
        )
        assert solution.phase_deg("out") == pytest.approx(-45.0, abs=0.01)

    def test_vcvs_gain(self):
        c = AnalogCircuit("vcvs")
        c.vsource("V1", "in", "0", ac=1.0)
        c.resistor("Rload_in", "in", "0", 1e6)
        c.vcvs("E1", "out", "0", "in", "0", gain=7.0)
        c.resistor("Rload", "out", "0", 1000.0)
        solution = MnaSolver(c).solve(100.0)
        assert abs(solution.voltage("out")) == pytest.approx(7.0)

    def test_ideal_opamp_virtual_short(self):
        c = AnalogCircuit("follower")
        c.vsource("V1", "in", "0", ac=1.0)
        c.opamp("U1", "in", "out", "out")  # unity follower
        c.resistor("Rload", "out", "0", 1000.0)
        solution = MnaSolver(c).solve(100.0)
        assert abs(solution.voltage("out")) == pytest.approx(1.0)


class TestErrors:
    def test_empty_circuit_raises(self):
        with pytest.raises(AnalogError):
            MnaSolver(AnalogCircuit("empty")).solve_dc()

    def test_unknown_node_in_solution(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "0", 1.0)
        solution = MnaSolver(c).solve_dc()
        with pytest.raises(AnalogError):
            solution.voltage("ghost")

    def test_unknown_branch_current(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "0", 1.0)
        solution = MnaSolver(c).solve_dc()
        with pytest.raises(AnalogError):
            solution.branch_current("R1")

    def test_ground_voltage_is_zero(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "0", 1.0)
        solution = MnaSolver(c).solve_dc()
        assert solution.voltage("0") == 0

    def test_voltage_between(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=2.0)
        c.resistor("R1", "a", "b", 1000.0)
        c.resistor("R2", "b", "0", 1000.0)
        solution = MnaSolver(c).solve_dc()
        assert solution.voltage_between("a", "b").real == pytest.approx(1.0)


class TestDeviations:
    def test_deviation_shifts_solution(self):
        c = AnalogCircuit("divider")
        c.vsource("V1", "in", "0", dc=10.0)
        c.resistor("R1", "in", "mid", 1000.0)
        c.resistor("R2", "mid", "0", 1000.0)
        nominal = MnaSolver(c).solve_dc().voltage("mid").real
        deviated = AcModel(c, None, deviations={"R2": 1.0})  # R2 doubles
        shifted = Solution.of(deviated, deviated.solve(0.0), 0.0)
        assert nominal == pytest.approx(5.0)
        assert shifted.voltage("mid").real == pytest.approx(10.0 * 2000 / 3000)
        assert c.effective_value("R2", {"R2": 0.5}) == pytest.approx(1500.0)
        assert c.effective_value("R2") == 1000.0

    def test_invalid_deviation_rejected(self):
        c = AnalogCircuit("x")
        c.resistor("R1", "a", "0", 1000.0)
        with pytest.raises(AnalogError):
            c.deviation_state({"R1": -1.0})

    def test_deviation_of_unknown_element(self):
        c = AnalogCircuit("x")
        with pytest.raises(AnalogError):
            c.deviation_state({"Rx": 0.1})

    def test_duplicate_component_rejected(self):
        c = AnalogCircuit("x")
        c.resistor("R1", "a", "0", 1.0)
        with pytest.raises(AnalogError):
            c.resistor("R1", "b", "0", 2.0)

    def test_value_of_valueless_component(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        with pytest.raises(AnalogError):
            c.nominal_value("V1")


class TestRelativeConditioning:
    """The ill-conditioning test on ``1 + wᵀy`` is relative, not absolute.

    The circuits are the registry ladder plus a node ``m`` with a
    resistor ``RM`` to ground and a VCCS ``GM`` of negative
    transconductance ``−1/(2·RM)`` feeding back on ``m`` itself.  Its
    stamp is the single entry ``A[m, m]``, so the Sherman–Morrison
    denominator is an exactly linear function of the deviation,
    ``denominator(d) = 1 + d·D`` with ``D = wᵀy / d`` fixed by the
    circuit, and a legal (positive) deviation lands it on any target —
    here ``t = 1e-13``, *above* the historical absolute ``1e-14``
    cutoff but below the relative ``DENOM_RTOL`` one.  The old test
    silently took the catastrophically cancelling fast branch for such
    updates; the fixed test must route them to the dense fallback.
    """

    T = 1e-13

    @staticmethod
    def _with_feedback(circuit, r_ohms):
        """``circuit`` plus the node ``m`` and its negative feedback."""
        circuit.resistor("RM", "m", "0", r_ohms)
        circuit.add(VCCS("GM", "m", "0", "m", "0", -0.5 / r_ohms))
        return circuit

    @staticmethod
    def _near_singular_deviation(factorized, element, t):
        """A deviation placing ``|1 + wᵀy|`` at ``t`` analytically."""
        probe = 0.5
        entries, _ = factorized._stamp_delta(element, probe)
        _, u_rows, u_vals, w_cols, w_vals = factorized._factor_delta(entries)
        u = np.zeros(factorized._size, dtype=complex)
        u[u_rows] = u_vals
        y = factorized._factorization.solve(u)
        w_dot_y = sum(w * y[c] for c, w in zip(w_cols, w_vals))
        slope = (w_dot_y / probe).real  # wᵀy is linear in the deviation
        return (t - 1.0) / slope

    def _assert_falls_back(self, circuit, element):
        factorized = MnaSolver(circuit).factorized(0.0)
        deviation = self._near_singular_deviation(
            factorized, element, self.T
        )
        assert -1.0 < deviation  # a legal deviation
        # Verify the construction: the denominator really sits between
        # the old absolute cutoff and the new relative one.
        entries, _ = factorized._stamp_delta(element, deviation)
        _, u_rows, u_vals, w_cols, w_vals = factorized._factor_delta(entries)
        u = np.zeros(factorized._size, dtype=complex)
        u[u_rows] = u_vals
        y = factorized._factorization.solve(u)
        w_dot_y = sum(w * y[c] for c, w in zip(w_cols, w_vals))
        denominator = 1.0 + w_dot_y
        assert 1e-14 < abs(denominator) < factorized.DENOM_RTOL * max(
            1.0, abs(w_dot_y)
        )
        patched = []
        original = factorized._patched_solve

        def spy(entries):
            patched.append(entries)
            return original(entries)

        factorized._patched_solve = spy
        factorized.deviation_batch([(element, deviation)], "out")
        assert patched == [entries]  # dense fallback, not the fast branch

    def test_near_singular_update_takes_dense_fallback(self):
        from repro.circuits import rc_ladder

        self._assert_falls_back(
            self._with_feedback(rc_ladder(8), 1.0e3), "GM"
        )

    def test_scaled_registry_circuit_takes_same_branch(self):
        # A copy of the registry ladder with impedances scaled by 1e7:
        # the branch decision must survive bad system scaling.
        from repro.circuits import rc_ladder

        self._assert_falls_back(
            self._with_feedback(
                rc_ladder(8, r_ohms=1.0e10, c_farads=1.0e-16), 1.0e10
            ),
            "GM",
        )

    def test_fallback_faults_match_fresh_solve(self):
        from repro.circuits import LADDER_SOURCE, rc_ladder

        circuit = self._with_feedback(rc_ladder(8), 1.0e3)
        factorized = MnaSolver(circuit, source=LADDER_SOURCE).factorized(0.0)
        deviation = self._near_singular_deviation(factorized, "GM", self.T)
        faults = [("GM", deviation), ("R2", 0.5)]
        batch = factorized.deviation_batch(faults, "out")
        for (element, dev), voltage in zip(faults, batch):
            expected = AcModel(
                circuit, LADDER_SOURCE, "out", {element: dev}
            ).transfer(0.0)
            assert voltage == pytest.approx(expected, rel=1e-9, abs=1e-9)
