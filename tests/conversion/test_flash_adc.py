"""Tests for the flash ADC model (cross-validated against MNA)."""

from dataclasses import replace

import pytest

from repro.conversion import FlashAdc
from repro.spice import MnaSolver


def deviated(adc: FlashAdc, index: int, deviation: float) -> FlashAdc:
    """A copy of ``adc`` with ladder resistor ``index`` (0-based) deviated."""
    values = list(adc.resistor_values)
    values[index] *= 1.0 + deviation
    return replace(adc, resistor_values=values)


class TestThresholds:
    def test_uniform_ladder_taps(self):
        adc = FlashAdc(n_comparators=4, v_top=5.0)
        assert adc.thresholds() == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_monotone_thresholds(self):
        adc = FlashAdc()
        taps = adc.thresholds()
        assert all(a < b for a, b in zip(taps, taps[1:]))

    def test_resistor_count_enforced(self):
        with pytest.raises(ValueError):
            FlashAdc(n_comparators=4, resistor_values=[1000.0] * 4)

    def test_analytic_matches_mna(self):
        # The closed-form taps must agree with a real ladder solve.
        adc = deviated(FlashAdc(n_comparators=7, v_top=5.0), 2, 0.3)
        circuit = adc.as_circuit()
        solution = MnaSolver(circuit).solve_dc()
        for index, expected in enumerate(adc.thresholds()):
            measured = solution.voltage(f"t{index + 1}").real
            # The solver's GMIN (1e-12 S to ground) perturbs at ~1e-9.
            assert measured == pytest.approx(expected, rel=1e-6)


class TestConversion:
    def test_thermometer_codes(self):
        adc = FlashAdc(n_comparators=4, v_top=5.0)
        assert adc.convert(0.5) == (0, 0, 0, 0)
        assert adc.convert(2.5) == (1, 1, 0, 0)
        assert adc.convert(9.9) == (1, 1, 1, 1)

    def test_code_counts_ones(self):
        adc = FlashAdc(n_comparators=15)
        assert adc.code(adc.v_top) == 15
        assert adc.code(0.0) == 0

    def test_output_names(self):
        adc = FlashAdc(n_comparators=3)
        assert adc.output_names("x") == ["x0", "x1", "x2"]


class TestDeviations:
    def test_deviation_shifts_taps(self):
        adc = FlashAdc(n_comparators=4, v_top=5.0)
        nominal = adc.thresholds()
        shifted = deviated(adc, 0, 1.0).thresholds()  # bottom resistor doubles
        assert all(s > n for s, n in zip(shifted, nominal))
        assert adc.thresholds() == nominal  # the original is untouched

    def test_unknown_resistor_rejected(self):
        # A deviated copy is validated like a new converter: a fourth
        # resistor on a two-comparator ladder does not exist.
        adc = FlashAdc(n_comparators=2)
        with pytest.raises(ValueError):
            replace(adc, resistor_values=adc.resistor_values + [1000.0])
