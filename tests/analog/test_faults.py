"""Tests for analog fault models."""

import pytest

from repro.analog import (
    AnalogFaultKind,
    catastrophic_faults,
    open_fault,
    parametric,
    short_fault,
)
from repro.spice import AnalogCircuit, dc_gain


def state(fault, circuit) -> dict[str, float]:
    """The deviation state that injects ``fault``."""
    return {fault.element: fault.value_deviation(circuit)}


def divider() -> AnalogCircuit:
    c = AnalogCircuit("div")
    c.vsource("Vin", "in", "0", ac=1.0)
    c.resistor("R1", "in", "out", 1000.0)
    c.resistor("R2", "out", "0", 1000.0)
    c.capacitor("C1", "out", "0", 1e-9)
    return c


class TestParametric:
    def test_deviation_applied_and_restored(self):
        c = divider()
        fault = parametric("R2", 1.0)
        nominal = dc_gain(c, "Vin", "out")
        faulty = dc_gain(c, "Vin", "out", state(fault, c))
        restored = dc_gain(c, "Vin", "out")
        assert nominal == pytest.approx(0.5)
        assert faulty == pytest.approx(2000 / 3000)
        assert restored == pytest.approx(0.5)

    def test_str(self):
        assert str(parametric("R1", 0.25)) == "R1 +25.0%"


class TestCatastrophic:
    def test_open_resistor_kills_divider(self):
        c = divider()
        faulty = dc_gain(c, "Vin", "out", state(open_fault("R2"), c))
        assert faulty == pytest.approx(1.0, abs=1e-2)

    def test_short_resistor(self):
        c = divider()
        faulty = dc_gain(c, "Vin", "out", state(short_fault("R2"), c))
        assert faulty == pytest.approx(0.0, abs=1e-2)

    def test_capacitor_duality(self):
        c = divider()
        # An *open* capacitor means it disappears: its value shrinks.
        open_c = open_fault("C1")
        assert open_c.value_deviation(c) < 0
        short_c = short_fault("C1")
        assert short_c.value_deviation(c) > 0

    def test_enumeration(self):
        faults = catastrophic_faults(divider())
        # 2 per R and C: (R1, R2, C1) x (open, short).
        assert len(faults) == 6
        kinds = {f.kind for f in faults}
        assert kinds == {AnalogFaultKind.OPEN, AnalogFaultKind.SHORT}

    def test_str(self):
        assert str(open_fault("R1")) == "R1 open"
