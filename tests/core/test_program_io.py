"""Tests for test-program serialization."""

import json

import pytest

from repro.atpg import AnalogStimulus, DigitalVector, MixedTestStep
from repro.core import TestProgram, dumps, loads, program_from_report


def sample_program() -> TestProgram:
    return TestProgram(
        circuit_name="demo",
        analog_steps=[
            MixedTestStep(
                target="Rd (E.D. 10.0% via A1)",
                stimulus=AnalogStimulus(1.7, 2500.0, "lower bound"),
                vector=DigitalVector.from_mapping({"l1": 1, "l4": 0}),
                observe="Vo1",
                expected=1,
            ),
            MixedTestStep(target="bare"),
        ],
        digital_vectors=[{"l0": 1, "l1": 0, "l2": 1, "l4": 0}],
    )


class TestRoundTrip:
    def test_dumps_loads_identity(self):
        program = sample_program()
        recovered = loads(dumps(program))
        assert recovered.circuit_name == program.circuit_name
        assert recovered.digital_vectors == program.digital_vectors
        assert len(recovered.analog_steps) == 2
        first = recovered.analog_steps[0]
        assert first.stimulus.amplitude == 1.7
        assert first.vector.as_dict() == {"l1": 1, "l4": 0}
        assert first.observe == "Vo1"
        assert first.expected == 1

    def test_bare_step_round_trips(self):
        recovered = loads(dumps(sample_program()))
        bare = recovered.analog_steps[1]
        assert bare.stimulus is None
        assert bare.vector is None

    def test_json_is_stable(self):
        a = dumps(sample_program())
        b = dumps(sample_program())
        assert a == b
        json.loads(a)  # valid JSON

    def test_version_check(self):
        document = json.loads(dumps(sample_program()))
        document["format_version"] = 99
        with pytest.raises(ValueError):
            loads(json.dumps(document))

    def test_n_steps(self):
        assert sample_program().n_steps == 3


class TestFromReport:
    def test_extracts_generator_output(self):
        from repro.api import Pipeline
        from repro.circuits import fig4_mixed_circuit

        report = Pipeline().run(fig4_mixed_circuit()).report
        program = program_from_report(report)
        assert program.circuit_name == "fig4-mixed"
        assert len(program.analog_steps) == 8
        assert program.digital_vectors
        recovered = loads(dumps(program))
        assert recovered.n_steps == program.n_steps
