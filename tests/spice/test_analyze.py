"""Tests of the analyze() front door and its request/result types."""

import numpy as np
import pytest

from repro.circuits import bandpass_filter
from repro.spice import (
    AcSweep,
    AnalogCircuit,
    AnalogError,
    DcOp,
    FrequencyResponse,
    TransientRun,
    TransientSolver,
    analyze,
    sine,
    sweep,
)


def divider():
    circuit = AnalogCircuit("divider")
    circuit.vsource("V1", "in", "0", dc=10.0, ac=1.0)
    circuit.resistor("R1", "in", "mid", 1000.0)
    circuit.resistor("R2", "mid", "0", 3000.0)
    return circuit


def rc_circuit():
    circuit = AnalogCircuit("rc")
    circuit.vsource("V1", "in", "0", dc=0.0)
    circuit.resistor("R1", "in", "out", 1000.0)
    circuit.capacitor("C1", "out", "0", 1e-6)
    return circuit


class TestDcOp:
    @pytest.mark.parametrize("backend", ["auto", "dense", "sparse"])
    def test_operating_point(self, backend):
        result = analyze(divider(), DcOp(), backend=backend)
        assert result.voltage("mid").real == pytest.approx(7.5)

    def test_diagnostics_name_the_backend(self):
        result = analyze(divider(), DcOp(), backend="sparse")
        diag = result.diagnostics
        assert diag.backend == "sparse"
        assert diag.n_nodes == 2 and diag.n_unknowns == 3
        assert diag.factorizations == 1 and diag.elapsed_s >= 0.0

    def test_auto_is_dense_for_small_circuits(self):
        assert analyze(divider(), DcOp()).diagnostics.backend == "dense"


class TestAcSweepRequest:
    def test_transfer_sweep_matches_classic_sweep(self):
        from repro.circuits import BANDPASS_OUTPUT, BANDPASS_SOURCE

        circuit = bandpass_filter()
        frequencies = (1.0e3, 2.5e3, 5.0e3)
        result = analyze(
            circuit,
            AcSweep(frequencies, source=BANDPASS_SOURCE, output=BANDPASS_OUTPUT),
        )
        classic = sweep(
            circuit, BANDPASS_SOURCE, BANDPASS_OUTPUT, list(frequencies)
        )
        assert isinstance(result.response, FrequencyResponse)
        for ours, theirs in zip(
            result.response.transfer_values, classic.transfer_values
        ):
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_as_built_sweep_has_no_response(self):
        result = analyze(divider(), AcSweep((100.0, 200.0)))
        assert result.response is None
        assert len(result.solutions) == 2
        assert result.magnitude("mid")[0] == pytest.approx(0.75)

    def test_log_constructor(self):
        request = AcSweep.log(10.0, 1.0e4, 5, source="V1", output="mid")
        assert request.frequencies_hz[0] == pytest.approx(10.0)
        assert request.frequencies_hz[-1] == pytest.approx(1.0e4)

    def test_repeated_frequencies_are_each_factored(self):
        # No solver-held LU cache: every requested frequency is its own
        # system, and repeats give equal solutions.
        result = analyze(
            divider(),
            AcSweep((100.0, 100.0, 200.0), source="V1", output="mid"),
        )
        assert result.diagnostics.factorizations == 3
        first, repeat, _ = result.response.transfer_values
        assert first == repeat
        assert set(result.diagnostics.as_dict()) == {
            "backend", "n_nodes", "n_unknowns", "factorizations", "elapsed_s",
        }

    def test_validation(self):
        with pytest.raises(AnalogError, match="at least one"):
            AcSweep(())
        with pytest.raises(AnalogError, match=">= 0"):
            AcSweep((-1.0,))
        with pytest.raises(AnalogError, match="both source and output"):
            AcSweep((100.0,), source="V1")

    def test_unit_source_is_restored(self):
        circuit = divider()
        source = circuit.component("V1")
        source.ac = 0.25
        result = analyze(
            circuit, AcSweep((0.0, 100.0), source="V1", output="mid")
        )
        assert result.response.magnitudes() == pytest.approx([0.75, 0.75])
        assert source.ac == 0.25 and source.dc == 10.0

    def test_sweep_is_the_transfer_request(self):
        circuit = bandpass_filter()
        frequencies = [0.0, 1.0e3, 2.5e3]
        assert sweep(circuit, "Vin", "V1", frequencies) == analyze(
            circuit, AcSweep(frequencies, source="Vin", output="V1")
        ).response
        with pytest.raises(AnalogError, match="at least one"):
            sweep(circuit, "Vin", "V1", [])


class TestTransientRequest:
    def test_matches_classic_transient_solver(self):
        waves = {"V1": sine(1.0, 500.0)}
        result = analyze(
            rc_circuit(), TransientRun(t_stop=2e-3, dt=1e-5, sources=waves)
        )
        classic = TransientSolver(rc_circuit()).run(2e-3, 1e-5, waves)
        assert np.max(
            np.abs(result.waveform("out") - classic.waveform("out"))
        ) < 1e-12
        assert result.diagnostics.backend == "dense"

    def test_delegated_measurements(self):
        result = analyze(
            rc_circuit(),
            TransientRun(
                t_stop=4e-3, dt=1e-5, sources={"V1": sine(1.0, 500.0)}
            ),
        )
        assert 0.0 < result.amplitude("out") < 1.0
        assert 0.0 <= result.duty_above("out", 0.0) <= 1.0
        assert len(result.times) == 400


class TestFrontDoorErrors:
    def test_unknown_request_type(self):
        with pytest.raises(AnalogError, match="unknown analysis request"):
            analyze(divider(), object())

    def test_waveform_error_lists_available_nodes(self):
        result = analyze(
            rc_circuit(), TransientRun(t_stop=1e-3, dt=1e-5)
        )
        with pytest.raises(AnalogError, match="available nodes: in, out"):
            result.waveform("ghost")

    def test_frequency_response_at_outside_range(self):
        response = FrequencyResponse(
            [10.0, 100.0], [1.0 + 0j, 0.5 + 0j]
        )
        with pytest.raises(AnalogError, match="outside the swept range"):
            response.at(1.0e4)
        with pytest.raises(AnalogError, match="outside the swept range"):
            response.at(1.0)
        assert response.at(99.0) == 0.5 + 0j
