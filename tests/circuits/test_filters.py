"""Tests for the paper's three filters (Figures 2, 7, 8)."""

import pytest

from repro.circuits import (
    bandpass_filter,
    bandpass_parameters,
    chebyshev_filter,
    chebyshev_parameters,
    nominal_center_frequency,
    nominal_center_gain,
    state_variable_filter,
    state_variable_parameters,
)
from repro.spice import dc_gain, gain_at, peak_gain


class TestBandpass:
    def test_element_roster_matches_paper(self):
        circuit = bandpass_filter()
        assert set(circuit.element_names()) == {
            "R1", "R2", "R3", "R4", "Rg", "Rd", "C1", "C2",
        }

    def test_center_frequency_matches_analytic(self):
        circuit = bandpass_filter()
        f0, _gain = peak_gain(circuit, "Vin", "V1", 50.0, 2e5)
        assert f0 == pytest.approx(nominal_center_frequency(), rel=0.01)

    def test_center_gain_matches_analytic(self):
        circuit = bandpass_filter()
        _f0, gain = peak_gain(circuit, "Vin", "V1", 50.0, 2e5)
        assert gain == pytest.approx(nominal_center_gain(), rel=0.01)

    def test_center_gain_set_by_rd_rg_only(self):
        # The paper's structural fact behind Example 1's A1 row.
        circuit = bandpass_filter()
        _f0, nominal = peak_gain(circuit, "Vin", "V1", 50.0, 2e5)
        _f, perturbed = peak_gain(
            circuit, "Vin", "V1", 50.0, 2e5, deviations={"R1": 0.2, "C2": -0.2}
        )
        assert perturbed == pytest.approx(nominal, rel=0.005)
        _f, gained = peak_gain(
            circuit, "Vin", "V1", 50.0, 2e5, deviations={"Rd": 0.2}
        )
        assert gained == pytest.approx(nominal * 1.2, rel=0.01)

    def test_all_parameters_measurable(self):
        circuit = bandpass_filter()
        for parameter in bandpass_parameters():
            assert parameter.measure(circuit) > 0


class TestChebyshev:
    def test_element_roster_matches_figure(self):
        circuit = chebyshev_filter()
        names = set(circuit.element_names())
        assert {f"R{i}" for i in range(1, 13)} <= names  # 12 resistors
        assert {f"C{i}" for i in range(1, 6)} <= names  # 5 capacitors

    def test_low_pass_character(self):
        circuit = chebyshev_filter()
        passband = gain_at(circuit, "Vin", "Vo", 1_000.0)
        stopband = gain_at(circuit, "Vin", "Vo", 100_000.0)
        assert stopband < 0.01 * passband

    def test_fifth_order_rolloff(self):
        # Past the knee the slope approaches 100 dB/decade: a factor-2
        # frequency step drops the gain by well over 20 dB.
        circuit = chebyshev_filter()
        g30k = gain_at(circuit, "Vin", "Vo", 30_000.0)
        g60k = gain_at(circuit, "Vin", "Vo", 60_000.0)
        assert g60k < g30k / 10.0

    def test_all_parameters_measurable(self):
        circuit = chebyshev_filter()
        for parameter in chebyshev_parameters():
            assert parameter.measure(circuit) > 0


class TestStateVariable:
    def test_simultaneous_responses(self):
        circuit = state_variable_filter()
        # LP (V3): flat at DC, dead at high frequency.
        assert dc_gain(circuit, "Vin", "V3") > 0.5
        assert gain_at(circuit, "Vin", "V3", 100_000.0) < 0.05
        # HP (V1): dead at low frequency, alive above f0.
        assert gain_at(circuit, "Vin", "V1", 20.0) < 0.05
        assert gain_at(circuit, "Vin", "V1", 20_000.0) > 0.5
        # BP (V2): peaked near f0 ~ 1.6 kHz.
        peak_f, _m = peak_gain(circuit, "Vin", "V2", 100.0, 50_000.0)
        assert 800 < peak_f < 3500

    def test_divider_tap_scales_lp(self):
        circuit = state_variable_filter()
        v3 = dc_gain(circuit, "Vin", "V3")
        v3p = dc_gain(circuit, "Vin", "V3p")
        assert v3p == pytest.approx(v3 * 10_000.0 / 14_700.0, rel=1e-3)

    def test_all_parameters_measurable(self):
        circuit = state_variable_filter()
        for parameter in state_variable_parameters():
            assert parameter.measure(circuit) > 0
