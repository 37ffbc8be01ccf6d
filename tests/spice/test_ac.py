"""Tests for AC sweeps and transfer utilities against analytic filters."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import BANDPASS_OUTPUT, BANDPASS_SOURCE, bandpass_filter
from repro.spice import (
    AnalogCircuit,
    AnalogError,
    FrequencyResponse,
    MnaSolver,
    log_frequencies,
    sweep,
    transfer,
)


def rc_low_pass(r: float = 1000.0, c: float = 1e-6) -> AnalogCircuit:
    circuit = AnalogCircuit("rc")
    circuit.vsource("V1", "in", "0", ac=1.0)
    circuit.resistor("R1", "in", "out", r)
    circuit.capacitor("C1", "out", "0", c)
    return circuit


class TestTransfer:
    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_rc_matches_analytic(self, frequency):
        circuit = rc_low_pass()
        measured = transfer(circuit, "V1", "out", frequency)
        s = 2j * math.pi * frequency
        analytic = 1.0 / (1.0 + s * 1000.0 * 1e-6)
        assert cmath.isclose(measured, analytic, rel_tol=1e-6)

    def test_transfer_restores_source_amplitude(self):
        circuit = rc_low_pass()
        source = circuit.component("V1")
        source.ac = 3.0
        transfer(circuit, "V1", "out", 100.0)
        assert source.ac == 3.0

    def test_non_source_rejected(self):
        circuit = rc_low_pass()
        with pytest.raises(AnalogError):
            transfer(circuit, "R1", "out", 100.0)


class TestSweep:
    def test_sweep_shape(self):
        circuit = rc_low_pass()
        grid = [10.0, 100.0, 1000.0]
        response = sweep(circuit, "V1", "out", grid)
        assert response.frequencies_hz == grid
        assert len(response.transfer_values) == 3

    def test_empty_frequency_list_rejected(self):
        with pytest.raises(AnalogError, match="at least one"):
            sweep(rc_low_pass(), "V1", "out", [])

    def test_negative_frequency_rejected(self):
        with pytest.raises(AnalogError, match=">= 0"):
            sweep(rc_low_pass(), "V1", "out", [-1.0, 10.0])

    def test_dc_point_leaves_source_levels_untouched(self):
        # A DC point drives the source at unit amplitude too, on a copy.
        circuit = rc_low_pass()
        source = circuit.component("V1")
        source.ac, source.dc = 0.25, 10.0
        at_dc = sweep(circuit, "V1", "out", [0.0, 10.0])
        assert at_dc.magnitudes()[0] == pytest.approx(1.0)
        assert (source.ac, source.dc) == (0.25, 10.0)

    def test_repeated_frequencies_give_equal_transfers(self):
        response = sweep(rc_low_pass(), "V1", "out", [100.0, 100.0, 200.0])
        first, repeat, other = response.transfer_values
        assert first == repeat
        assert other != first

    def test_matches_unit_driven_solves(self):
        # The bandpass filter's transfer, DC point included, equals the
        # output voltage of a unit-driven solve at each frequency.
        circuit = bandpass_filter()
        frequencies = [0.0, 1.0e3, 2.5e3, 5.0e3]
        response = sweep(
            circuit, BANDPASS_SOURCE, BANDPASS_OUTPUT, frequencies
        )
        solver = MnaSolver(circuit, source=BANDPASS_SOURCE)
        for frequency, value in zip(frequencies, response.transfer_values):
            expected = solver.solve(frequency).voltage(BANDPASS_OUTPUT)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_magnitudes_monotone_for_low_pass(self):
        circuit = rc_low_pass()
        response = sweep(
            circuit, "V1", "out", log_frequencies(1.0, 1e5, 10)
        )
        mags = response.magnitudes()
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_peak_and_at(self):
        response = FrequencyResponse(
            [1.0, 10.0, 100.0], [0.5 + 0j, 2.0 + 0j, 1.0 + 0j]
        )
        f_peak, magnitude = response.peak()
        assert f_peak == 10.0 and magnitude == 2.0
        assert response.at(9.0) == 2.0 + 0j
        for outside in (0.5, 1.0e3):
            with pytest.raises(AnalogError, match="outside the swept range"):
                response.at(outside)

    def test_magnitudes_db(self):
        response = FrequencyResponse([1.0], [10.0 + 0j])
        assert response.magnitudes_db()[0] == pytest.approx(20.0)


class TestLogFrequencies:
    def test_endpoints_included(self):
        grid = log_frequencies(1.0, 1000.0, 10)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1000.0)

    def test_bad_range_rejected(self):
        with pytest.raises(AnalogError):
            log_frequencies(0.0, 100.0)
        with pytest.raises(AnalogError):
            log_frequencies(100.0, 10.0)
