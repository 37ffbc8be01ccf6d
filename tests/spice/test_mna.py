"""Tests of the MNA solver against hand-solvable circuits."""

import dataclasses
import math

import numpy as np
import pytest

from repro.spice import AnalogCircuit, AnalogError, MnaSolver


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


class TestAc:
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
        c.set_deviation("R2", 1.0)  # R2 doubles
        shifted = MnaSolver(c).solve_dc().voltage("mid").real
        assert nominal == pytest.approx(5.0)
        assert shifted == pytest.approx(10.0 * 2000 / 3000)

    def test_with_deviations_restores(self):
        c = AnalogCircuit("divider")
        c.vsource("V1", "in", "0", dc=10.0)
        c.resistor("R1", "in", "mid", 1000.0)
        c.resistor("R2", "mid", "0", 1000.0)
        with c.with_deviations({"R2": 0.5}):
            assert c.effective_value("R2") == pytest.approx(1500.0)
        assert c.effective_value("R2") == pytest.approx(1000.0)

    def test_invalid_deviation_rejected(self):
        c = AnalogCircuit("x")
        c.resistor("R1", "a", "0", 1000.0)
        with pytest.raises(AnalogError):
            c.set_deviation("R1", -1.0)

    def test_deviation_of_unknown_element(self):
        c = AnalogCircuit("x")
        with pytest.raises(AnalogError):
            c.set_deviation("Rx", 0.1)

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

    For a resistor the Sherman–Morrison denominator is an exactly linear
    function of the conductance delta, ``denominator(Δg) = 1 + Δg·D``
    with ``D = wᵀy / Δg`` fixed by the circuit, so a deviation can be
    constructed that lands the denominator on any target — here
    ``t = 1e-13``, *above* the historical absolute ``1e-14`` cutoff but
    below the relative ``DENOM_RTOL`` one.  The old test silently took
    the catastrophically cancelling fast branch for such updates; the
    fixed test must route them to the dense fallback.
    """

    T = 1e-13

    @staticmethod
    def _near_singular_deviation(circuit, element, factorized, t):
        """A deviation placing ``|1 + wᵀy|`` at ``t`` analytically."""
        nominal = circuit.nominal_value(element)
        probe = 0.5
        entries, _ = factorized._stamp_delta(element, probe)
        _, u_rows, u_vals, w_cols, w_vals = factorized._factor_delta(entries)
        u = np.zeros(factorized._size, dtype=complex)
        u[u_rows] = u_vals
        y = factorized._factorization.solve(u)
        w_dot_y = sum(w * y[c] for c, w in zip(w_cols, w_vals))
        dg_probe = 1.0 / (nominal * (1.0 + probe)) - 1.0 / nominal
        slope = (w_dot_y / dg_probe).real  # wᵀy is linear in Δg
        dg_target = (t - 1.0) / slope
        return 1.0 / (1.0 + nominal * dg_target) - 1.0

    def _assert_falls_back(self, circuit, element):
        factorized = MnaSolver(circuit).factorized(0.0)
        deviation = self._near_singular_deviation(
            circuit, element, factorized, self.T
        )
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

        self._assert_falls_back(rc_ladder(8), "R4")

    def test_scaled_registry_circuit_takes_same_branch(self):
        # A copy of the registry ladder with impedances scaled by 1e7:
        # the branch decision must survive bad system scaling.
        from repro.circuits import rc_ladder

        self._assert_falls_back(
            rc_ladder(8, r_ohms=1.0e10, c_farads=1.0e-16), "R4"
        )

    def test_fallback_faults_match_fresh_solve(self):
        from repro.circuits import rc_ladder

        circuit = rc_ladder(8)
        factorized = MnaSolver(circuit).factorized(0.0)
        deviation = self._near_singular_deviation(
            circuit, "R4", factorized, self.T
        )
        faults = [("R4", deviation), ("R2", 0.5)]
        batch = factorized.deviation_batch(faults, "out")
        for (element, dev), voltage in zip(faults, batch):
            # The near-singular deviation drives R4 negative, which
            # ``with_deviations`` refuses, so the oracle solves a copy
            # built with the deviated value.
            deviated = AnalogCircuit(circuit.name)
            for component in circuit.components:
                if component.name == element:
                    component = dataclasses.replace(
                        component, value=component.value * (1.0 + dev)
                    )
                deviated.add(component)
            expected = MnaSolver(deviated).solve(0.0).voltage("out")
            assert voltage == pytest.approx(expected, rel=1e-9, abs=1e-9)
