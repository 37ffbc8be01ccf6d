"""Tests for performance-parameter definitions."""

import pytest

from repro.analog import (
    ParameterKind,
    PerformanceParameter,
    standard_filter_parameters,
)
from repro.core.fingerprint import analog_fingerprint
from repro.spice import AnalogCircuit


def inverting_amp(gain: float = 4.0) -> AnalogCircuit:
    c = AnalogCircuit("inv")
    c.vsource("Vin", "in", "0", ac=1.0)
    c.resistor("Rg", "in", "sum", 1000.0)
    c.resistor("Rf", "sum", "out", gain * 1000.0)
    c.opamp("U1", "0", "sum", "out")
    return c


class TestMeasure:
    def test_dc_gain(self):
        p = PerformanceParameter("Adc", ParameterKind.DC_GAIN, "Vin", "out")
        assert p.measure(inverting_amp()) == pytest.approx(4.0)

    def test_ac_gain_requires_frequency(self):
        p = PerformanceParameter("Aac", ParameterKind.AC_GAIN, "Vin", "out")
        with pytest.raises(ValueError):
            p.measure(inverting_amp())

    def test_ac_gain(self):
        p = PerformanceParameter(
            "Aac", ParameterKind.AC_GAIN, "Vin", "out", frequency_hz=1000.0
        )
        assert p.measure(inverting_amp()) == pytest.approx(4.0)

    def test_measure_respects_deviation_state(self):
        p = PerformanceParameter("Adc", ParameterKind.DC_GAIN, "Vin", "out")
        circuit = inverting_amp()
        assert p.measure(circuit, {"Rf": 0.5}) == pytest.approx(6.0)
        assert p.measure(circuit) == pytest.approx(4.0)


class TestStandardSets:
    def test_band_pass_set(self):
        params = standard_filter_parameters("Vin", "out")
        assert [p.name for p in params] == ["A1", "A2", "f0", "fc1", "fc2"]
        kinds = {p.name: p.kind for p in params}
        assert kinds["A1"] is ParameterKind.PEAK_GAIN
        assert kinds["fc1"] is ParameterKind.CUTOFF_LOW

    def test_low_pass_set(self):
        params = standard_filter_parameters("Vin", "out", band_pass=False)
        assert [p.name for p in params] == ["Adc", "Aac", "fc"]

    def test_parameters_are_frozen(self):
        p = standard_filter_parameters("Vin", "out")[0]
        with pytest.raises(AttributeError):
            p.name = "other"


class TestConcurrentMeasurement:
    """Measurement reads the circuit and never writes it, so threads can
    share one circuit object (``TestSession.run_batch`` fans out on
    threads).  The former mutate-and-restore path raced on the source
    amplitude and the deviation dict."""

    THREADS = 8

    def test_threads_measuring_one_fig4_circuit(self):
        import threading

        from repro.circuits import fig4_mixed_circuit

        mixed = fig4_mixed_circuit()
        circuit = mixed.analog
        parameters = mixed.parameters
        elements = circuit.element_names()
        states = [
            {
                elements[i % len(elements)]: 0.02 * (i + 1),
                elements[(i + 3) % len(elements)]: -0.015 * (i + 1),
            }
            for i in range(self.THREADS)
        ]
        expected = [
            [parameter.measure(circuit, state) for parameter in parameters]
            for state in states
        ]
        source = circuit.component(mixed.analog_source)
        before = (analog_fingerprint(circuit), source.ac, source.dc)

        results: list = [None] * self.THREADS
        errors: list = []
        barrier = threading.Barrier(self.THREADS)

        def work(index: int) -> None:
            try:
                barrier.wait()
                for _ in range(3):
                    results[index] = [
                        parameter.measure(circuit, states[index])
                        for parameter in parameters
                    ]
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == expected
        assert (analog_fingerprint(circuit), source.ac, source.dc) == before
        assert len({tuple(row) for row in expected}) == self.THREADS
