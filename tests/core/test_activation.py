"""Tests for analog fault activation through the converter."""

import pytest

from repro.analog import parametric
from repro.atpg import CompositeValue
from repro.circuits import bandpass_filter, bandpass_parameters, fig4_mixed_circuit
from repro.core import Bound, activate, choose_stimulus
from repro.core.fingerprint import analog_fingerprint


@pytest.fixture(scope="module")
def mixed():
    return fig4_mixed_circuit()


@pytest.fixture(scope="module")
def a2():
    return next(p for p in bandpass_parameters() if p.name == "A2")


class TestActivate:
    def test_gain_drop_produces_d(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.LOWER, vref)
        fault = parametric("Rg", +0.5)  # Rg up -> gain down
        result = activate(mixed, fault, choice)
        assert result.activated
        assert result.pinned["l0"] is CompositeValue.D

    def test_tiny_fault_not_activated(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.LOWER, vref)
        fault = parametric("Rg", +0.001)  # inside tolerance
        result = activate(mixed, fault, choice)
        assert not result.activated

    def test_gain_rise_produces_dbar(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.UPPER, vref)
        fault = parametric("Rg", -0.4)  # Rg down -> gain up
        result = activate(mixed, fault, choice)
        assert result.activated
        assert CompositeValue.D_BAR in result.pinned.values()

    def test_pinned_covers_all_converter_lines(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.LOWER, vref)
        result = activate(mixed, parametric("Rg", 0.5), choice)
        assert set(result.pinned) == set(mixed.converter_lines)

    def test_composite_lines_listing(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.LOWER, vref)
        result = activate(mixed, parametric("Rg", 0.5), choice)
        assert result.composite_lines() == [
            line
            for line, v in result.pinned.items()
            if v in (CompositeValue.D, CompositeValue.D_BAR)
        ]

    def test_analog_state_restored_after_activation(self, mixed, a2):
        vref = mixed.adc.threshold(0)
        choice = choose_stimulus(mixed.analog, a2, Bound.LOWER, vref)
        before = analog_fingerprint(mixed.analog)
        activate(mixed, parametric("Rg", 0.5), choice)
        assert analog_fingerprint(mixed.analog) == before
