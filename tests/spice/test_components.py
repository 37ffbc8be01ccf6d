"""Tests for individual component stamps."""

import pytest

from repro.spice import AnalogCircuit, MnaSolver, dc_gain, gain_at


class TestFiniteOpAmp:
    def test_matches_ideal_at_dc_for_large_gain(self):
        def inverting(ideal: bool) -> AnalogCircuit:
            c = AnalogCircuit("inv")
            c.vsource("V1", "in", "0", ac=1.0)
            c.resistor("Rg", "in", "sum", 1000.0)
            c.resistor("Rf", "sum", "out", 10_000.0)
            if ideal:
                c.opamp("U1", "0", "sum", "out")
            else:
                c.finite_opamp("U1", "0", "sum", "out", gain=2e5)
            return c

        ideal_gain = dc_gain(inverting(True), "V1", "out")
        finite_gain = dc_gain(inverting(False), "V1", "out")
        assert finite_gain == pytest.approx(ideal_gain, rel=1e-3)

    def test_gbw_rolls_off(self):
        c = AnalogCircuit("buf")
        c.vsource("V1", "in", "0", ac=1.0)
        c.resistor("Rg", "in", "sum", 1000.0)
        c.resistor("Rf", "sum", "out", 1000.0)
        c.finite_opamp("U1", "0", "sum", "out", gain=2e5, gbw=1e6)
        low = gain_at(c, "V1", "out", 100.0)
        high = gain_at(c, "V1", "out", 2e6)
        assert high < 0.7 * low

    def test_gain_deviation_injectable(self):
        # Open-loop gain is a live element value: a catastrophic gain
        # drop must degrade the closed-loop inverting gain.
        c = AnalogCircuit("inv")
        c.vsource("V1", "in", "0", ac=1.0)
        c.resistor("Rg", "in", "sum", 1000.0)
        c.resistor("Rf", "sum", "out", 100_000.0)
        c.finite_opamp("U1", "0", "sum", "out", gain=2e5)
        nominal = dc_gain(c, "V1", "out")
        # open-loop gain collapses to 200
        degraded = dc_gain(c, "V1", "out", {"U1": -0.999})
        assert degraded < 0.75 * nominal

    def test_element_names_include_finite_opamp(self):
        c = AnalogCircuit("x")
        c.finite_opamp("U1", "a", "b", "c")
        assert "U1" in c.element_names()


class TestVCCS:
    def test_transconductance(self):
        c = AnalogCircuit("gm")
        c.vsource("V1", "in", "0", dc=2.0)
        c.resistor("Rin", "in", "0", 1e6)
        c.add(__import__("repro.spice", fromlist=["VCCS"]).VCCS(
            "G1", "out", "0", "in", "0", 0.001
        ))
        c.resistor("RL", "out", "0", 1000.0)
        solution = MnaSolver(c).solve_dc()
        # i = gm*v = 2 mA into RL... sign: current out of "out" node.
        assert abs(solution.voltage("out").real) == pytest.approx(2.0)


class TestNodes:
    def test_nodes_discovered_across_attrs(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        c.vcvs("E1", "b", "0", "a", "0", 2.0)
        c.opamp("U1", "c", "d", "e")
        assert set(c.nodes()) == {"a", "b", "c", "d", "e"}

    def test_sources_listing(self):
        c = AnalogCircuit("x")
        c.vsource("V1", "a", "0", dc=1.0)
        c.isource("I1", "a", "0", dc=0.1)
        c.resistor("R1", "a", "0", 1.0)
        assert [s.name for s in c.sources()] == ["V1", "I1"]
