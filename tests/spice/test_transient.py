"""Tests for the transient solver against analytic and AC references."""

import math

import pytest

from repro.circuits import bandpass_filter
from repro.spice import (
    AnalogCircuit,
    AnalogError,
    TransientSolver,
    gain_at,
    sine,
    step,
)


def rc_circuit() -> AnalogCircuit:
    c = AnalogCircuit("rc")
    c.vsource("V1", "in", "0")
    c.resistor("R1", "in", "out", 1000.0)
    c.capacitor("C1", "out", "0", 1e-6)  # tau = 1 ms
    return c


class TestStepResponse:
    def test_rc_charging_curve(self):
        solver = TransientSolver(rc_circuit())
        result = solver.run(5e-3, 1e-6, {"V1": step(1.0)})
        tau_index = int(1e-3 / 1e-6) - 1
        value = result.waveform("out")[tau_index]
        assert value == pytest.approx(1 - math.exp(-1), abs=0.002)

    def test_settles_to_final_value(self):
        solver = TransientSolver(rc_circuit())
        result = solver.run(10e-3, 1e-6, {"V1": step(2.0)})
        assert result.waveform("out")[-1] == pytest.approx(2.0, abs=0.001)

    def test_initial_condition(self):
        solver = TransientSolver(rc_circuit())
        result = solver.run(
            5e-3, 1e-6, {"V1": step(0.0)}, initial={"out": 1.0}
        )
        tau_index = int(1e-3 / 1e-6) - 1
        assert result.waveform("out")[tau_index] == pytest.approx(
            math.exp(-1), abs=0.01
        )


class TestSineSteadyState:
    def test_rc_amplitude_matches_ac(self):
        circuit = rc_circuit()
        solver = TransientSolver(circuit)
        result = solver.run(20e-3, 2e-6, {"V1": sine(1.0, 1000.0)})
        assert result.amplitude("out") == pytest.approx(
            gain_at(circuit, "V1", "out", 1000.0), rel=0.01
        )

    def test_bandpass_with_opamps_matches_ac(self):
        circuit = bandpass_filter()
        solver = TransientSolver(circuit)
        result = solver.run(8e-3, 5e-7, {"Vin": sine(1.0, 2500.0)})
        assert result.amplitude("V1") == pytest.approx(2.0, rel=0.03)

    def test_duty_above_threshold(self):
        # The paper's Tp: a 2 V sine spends 1/3 of the cycle above 1 V
        # (sin > 0.5 over a 120-degree window).
        circuit = bandpass_filter()
        solver = TransientSolver(circuit)
        result = solver.run(8e-3, 5e-7, {"Vin": sine(1.0, 2500.0)})
        assert result.duty_above("V1", 1.0) == pytest.approx(1 / 3, abs=0.04)

    def test_measurements_on_one_run(self):
        result = TransientSolver(rc_circuit()).run(
            4e-3, 1e-5, {"V1": sine(1.0, 500.0)}
        )
        assert len(result.times) == 400
        assert 0.0 < result.amplitude("out") < 1.0
        assert 0.0 <= result.duty_above("out", 0.0) <= 1.0

    def test_comparator_output_bits(self):
        circuit = rc_circuit()
        solver = TransientSolver(circuit)
        result = solver.run(10e-3, 5e-6, {"V1": sine(1.0, 500.0)})
        bits = result.comparator_output("out", 0.0, settle_fraction=0.5)
        assert set(bits) == {0, 1}  # the output crosses zero


class TestErrors:
    def test_bad_step_rejected(self):
        with pytest.raises(AnalogError):
            TransientSolver(rc_circuit()).run(1e-3, 2e-3)

    def test_initial_voltage_on_unknown_node_rejected(self):
        solver = TransientSolver(rc_circuit())
        with pytest.raises(AnalogError, match="no node named 'ghost'"):
            solver.run(1e-3, 1e-5, initial={"ghost": 1.0})

    @pytest.mark.parametrize("name", ["Vghost", "R1"])
    def test_waveform_for_non_source_rejected(self, name):
        solver = TransientSolver(rc_circuit())
        with pytest.raises(
            AnalogError, match=f"no independent source named {name!r}"
        ):
            solver.run(1e-3, 1e-5, {name: step(1.0)})

    def test_unknown_node_in_result(self):
        solver = TransientSolver(rc_circuit())
        result = solver.run(1e-3, 1e-5, {"V1": step(1.0)})
        with pytest.raises(AnalogError, match="available nodes: in, out"):
            result.waveform("ghost")
