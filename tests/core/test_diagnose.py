"""Tests for dictionary-based fault diagnosis."""

import pytest

from repro.api import GeneratorConfig, Pipeline
from repro.circuits import fig4_mixed_circuit
from repro.core import MixedSignalTestGenerator, build_dictionary, diagnose


@pytest.fixture(scope="module")
def setup():
    mixed = fig4_mixed_circuit()
    config = GeneratorConfig(include_digital=False)
    report = Pipeline().run(mixed, generator=config).report
    return MixedSignalTestGenerator(mixed), report


class TestDictionary:
    def test_every_step_has_suspects(self, setup):
        generator, report = setup
        dictionary = build_dictionary(report, generator.sensitivities)
        assert set(dictionary) == {
            t.element for t in report.analog_tests if t.testable
        }
        for target, suspects in dictionary.items():
            assert target in suspects  # a step implicates its own target

    def test_a1_steps_implicate_only_rg_rd(self, setup):
        generator, report = setup
        dictionary = build_dictionary(report, generator.sensitivities)
        a1_targets = [
            t.element
            for t in report.analog_tests
            if t.parameter == "A1"
        ]
        for target in a1_targets:
            assert dictionary[target] <= {"Rg", "Rd"}


class TestDiagnose:
    def test_single_failure_narrows(self, setup):
        generator, report = setup
        # A fault in Rd fails its own step: candidates must include Rd.
        result = diagnose(report, generator.sensitivities, {"Rd"})
        assert "Rd" in result.candidates

    def test_clean_unit(self, setup):
        generator, report = setup
        result = diagnose(report, generator.sensitivities, set())
        assert result.candidates == []

    def test_multiple_failures_intersect(self, setup):
        generator, report = setup
        # Failing both the Rg step (A2-based) and the Rd step narrows to
        # elements both parameters share.
        result = diagnose(report, generator.sensitivities, {"Rg", "Rd"})
        dictionary = build_dictionary(report, generator.sensitivities)
        expected = dictionary["Rg"] & dictionary["Rd"]
        assert set(result.candidates) <= expected

    def test_unknown_step_rejected(self, setup):
        generator, report = setup
        with pytest.raises(ValueError):
            diagnose(report, generator.sensitivities, {"nonexistent"})

    def test_resolved_property(self, setup):
        generator, report = setup
        result = diagnose(report, generator.sensitivities, set())
        assert not result.resolved


class TestTable2:
    def test_glossary_renders(self):
        from repro.experiments import table2

        text = table2.run().render()
        assert "Table 2" in text
        assert "Adc" in text and "flcf" in text and "Vref" in text
