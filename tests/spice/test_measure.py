"""Tests for performance-parameter measurements."""

import math
import types

import pytest

from repro.circuits import bandpass_filter, bandpass_parameters
from repro.spice import (
    AnalogCircuit,
    AnalogError,
    MeasurementScope,
    acmodel,
    measure,
    bandwidth,
    center_frequency,
    cutoff_high,
    cutoff_low,
    dc_gain,
    gain_at,
    peak_gain,
)


def rc_low_pass() -> AnalogCircuit:
    circuit = AnalogCircuit("rc")
    circuit.vsource("V1", "in", "0", ac=1.0)
    circuit.resistor("R1", "in", "out", 1591.55)  # fc = 100 Hz with 1 uF
    circuit.capacitor("C1", "out", "0", 1e-6)
    return circuit


class TestGains:
    def test_dc_gain_of_divider(self):
        c = AnalogCircuit("div")
        c.vsource("V1", "in", "0")
        c.resistor("R1", "in", "out", 1000.0)
        c.resistor("R2", "out", "0", 1000.0)
        assert dc_gain(c, "V1", "out") == pytest.approx(0.5)

    def test_gain_at_corner(self):
        c = rc_low_pass()
        assert gain_at(c, "V1", "out", 100.0) == pytest.approx(
            1 / math.sqrt(2), rel=1e-3
        )


class TestCutoffs:
    def test_low_pass_high_cutoff(self):
        c = rc_low_pass()
        assert cutoff_high(c, "V1", "out", 1.0, 1e5) == pytest.approx(
            100.0, rel=1e-3
        )

    def test_low_pass_has_no_low_cutoff(self):
        c = rc_low_pass()
        with pytest.raises(AnalogError):
            cutoff_low(c, "V1", "out", 1.0, 1e5)

    def test_band_pass_cutoffs_bracket_center(self):
        c = bandpass_filter()
        f_low = cutoff_low(c, "Vin", "V1", 50.0, 2e5)
        f_high = cutoff_high(c, "Vin", "V1", 50.0, 2e5)
        f_center = center_frequency(c, "Vin", "V1", 50.0, 2e5)
        assert f_low < f_center < f_high

    def test_bandwidth_matches_design_q(self):
        # Tow-Thomas design: f0 = 2.5 kHz, Q = 2 -> BW = 1.25 kHz.
        c = bandpass_filter()
        assert bandwidth(c, "Vin", "V1", 50.0, 2e5) == pytest.approx(
            1250.0, rel=0.02
        )

    def test_reference_override(self):
        c = rc_low_pass()
        f = cutoff_high(c, "V1", "out", 1.0, 1e5, reference=0.5)
        # |H| = 0.5/sqrt(2) happens above the -3 dB point.
        assert f > 100.0


class TestPeak:
    def test_peak_of_band_pass(self):
        c = bandpass_filter()
        f_peak, magnitude = peak_gain(c, "Vin", "V1", 50.0, 2e5)
        assert f_peak == pytest.approx(2500.0, rel=0.01)
        assert magnitude == pytest.approx(2.0, rel=0.01)

    def test_bad_window_rejected(self):
        c = bandpass_filter()
        with pytest.raises(AnalogError):
            peak_gain(c, "Vin", "V1", 0.0, 1e5)


class TestMeasurementScope:
    def test_parameters_of_one_state_share_one_peak_search(self, monkeypatch):
        circuit = bandpass_filter()
        parameters = bandpass_parameters()
        state = {"Rd": 0.07}
        expected = [p.measure(circuit, state) for p in parameters]
        searches = []
        peak = measure._peak

        def counting(*args):
            searches.append(args)
            return peak(*args)

        monkeypatch.setattr(measure, "_peak", counting)
        scope = MeasurementScope(circuit)
        shared = [p.measure(circuit, state, scope=scope) for p in parameters]
        assert shared == expected
        assert len(searches) == 1  # Amax, f0, fc1 and fc2 share it
        assert [p.measure(circuit, state, scope=scope) for p in parameters] == shared
        assert len(searches) == 1

    def test_keys_follow_the_state_argument(self):
        circuit = bandpass_filter()
        scope = MeasurementScope(circuit)
        window = ("Vin", "V1", 50.0, 2.0e5, 120)
        nominal = scope.peak_gain(*window)
        moved = scope.peak_gain(*window, {"Rg": 0.2})
        assert moved != nominal
        assert moved == peak_gain(circuit, *window, {"Rg": 0.2})
        # A state is relative to nominal, and a zero entry is nominal.
        assert scope.peak_gain(*window) == nominal
        assert scope.peak_gain(*window, {"Rg": 0.0}) == nominal
        assert peak_gain(circuit, *window) == nominal

    def test_scope_of_another_circuit_is_rejected(self):
        parameter = bandpass_parameters()[0]
        with pytest.raises(ValueError, match="another circuit"):
            parameter.measure(
                bandpass_filter(), scope=MeasurementScope(bandpass_filter())
            )

    def test_failed_measurement_is_not_kept(self):
        scope = MeasurementScope(rc_low_pass())
        for _ in range(2):
            with pytest.raises(AnalogError, match="low-side"):
                scope.cutoff("V1", "out", False, 1.0, 1e6)


@pytest.mark.parametrize("module", [measure, acmodel], ids=lambda m: m.__name__)
def test_no_module_level_measurement_cache(module):
    """Sharing lives in scopes that die with their call: nothing at module
    (or class) level can hold a measurement, model or peak."""
    mutable = (dict, list, set, bytearray)
    owners = [vars(module)] + [
        vars(value)
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    for namespace in owners:
        for name, value in namespace.items():
            if name.startswith("__"):
                continue
            assert not isinstance(value, mutable), name
            assert not hasattr(value, "cache_info"), name  # functools caches
            assert not isinstance(value, types.MappingProxyType), name
