"""Integration tests of the full mixed-signal test generator (Fig. 4)."""

import pytest

from repro.api import GeneratorConfig, Pipeline
from repro.atpg import CompositeValue
from repro.circuits import fig4_mixed_circuit
from repro.core import (
    AnalogTestStatus,
    MixedSignalTestGenerator,
)
from repro.digital import coverage, simulate
from repro.digital.gates import GateType
from repro.digital.netlist import Gate


@pytest.fixture(scope="module")
def report():
    mixed = fig4_mixed_circuit()
    config = GeneratorConfig(include_unconstrained=True)
    return mixed, Pipeline().run(mixed, generator=config).report


class TestFullFlow:
    def test_all_analog_elements_testable(self, report):
        _mixed, result = report
        assert result.analog_coverage == 1.0
        assert result.n_analog_testable == 8

    def test_recipes_complete(self, report):
        _mixed, result = report
        for test in result.analog_tests:
            assert test.status is AnalogTestStatus.TESTABLE
            assert test.stimulus is not None
            assert test.vector is not None
            assert test.observing_output in ("Vo1", "Vo2")
            assert test.ed_percent > 0

    def test_recipe_end_to_end_detects_fault(self, report):
        # The decisive integration property: apply the emitted stimulus
        # to good and faulty analog blocks, push the codes through the
        # digital circuit with the emitted vector, and the observed
        # output must differ.
        mixed, result = report
        for test in result.analog_tests:
            frequency = test.stimulus.frequency_hz
            amplitude = test.stimulus.amplitude
            good_code = mixed.converter_code(frequency, amplitude)
            # Re-derive the injected fault the generator used: ED x 1.25,
            # trying both directions (the recipe stores only the bound).
            injected = test.ed_percent / 100.0 * 1.25
            detected_any = False
            for sign in (+1, -1):
                with mixed.analog.with_deviations(
                    {test.element: sign * injected}
                ):
                    faulty_code = mixed.converter_code(frequency, amplitude)
                if faulty_code == good_code:
                    continue
                assignment = dict(test.vector)
                assignment_faulty = dict(test.vector)
                for line, good, faulty in zip(
                    mixed.converter_lines, good_code, faulty_code
                ):
                    assignment[line] = good
                    assignment_faulty[line] = faulty
                good_out = simulate(mixed.digital, assignment)
                faulty_out = simulate(mixed.digital, assignment_faulty)
                if any(
                    good_out[o] != faulty_out[o]
                    for o in mixed.digital.outputs
                ):
                    detected_any = True
                    break
            assert detected_any, f"recipe for {test.element} fails end-to-end"

    def test_program_steps(self, report):
        _mixed, result = report
        steps = result.program()
        assert len(steps) == 8
        assert all("E.D." in step.target for step in steps)

    def test_comparator_observability(self, report):
        _mixed, result = report
        assert result.comparator_observability == [True, True]
        assert result.n_blocked_comparators == 0

    def test_digital_runs_attached(self, report):
        _mixed, result = report
        assert result.digital_run is not None
        assert result.digital_run.constrained
        assert result.digital_run_unconstrained is not None
        assert (
            result.digital_run.n_untestable
            >= result.digital_run_unconstrained.n_untestable
        )

    def test_summary_mentions_everything(self, report):
        _mixed, result = report
        text = result.summary()
        assert "8/8 elements testable" in text
        assert "digital (constrained)" in text

    def test_conversion_coverage_attached(self, report):
        _mixed, result = report
        assert result.conversion_coverage is not None
        assert len(result.conversion_coverage.ed_percent) == 2


class TestComparatorObservability:
    @pytest.mark.parametrize(
        "composite", [CompositeValue.D, CompositeValue.D_BAR]
    )
    def test_either_fault_side_reads_the_netlist(self, composite):
        # With Vo1 an AND and Vo2 an OR, comparator 2 (line l2) sees
        # l0 = 1 below it: l3 = NOR(l0, l2) is held at 0 and
        # Vo2 = OR(l6, l0) at 1, so its fault is blocked on either
        # side, while comparator 1 (line l0) still reaches the outputs.
        mixed = fig4_mixed_circuit()
        assert MixedSignalTestGenerator(mixed).comparator_observability(
            composite
        ) == [True, True]
        edited = fig4_mixed_circuit()
        for name, gate_type in (("Vo1", GateType.AND), ("Vo2", GateType.OR)):
            old = edited.digital.gates[name]
            edited.digital.gates[name] = Gate(name, gate_type, old.fanins)
        assert MixedSignalTestGenerator(edited).comparator_observability(
            composite
        ) == [True, False]


class TestGeneratorOptions:
    def test_comparator_budget_respected(self):
        mixed = fig4_mixed_circuit()
        generator = MixedSignalTestGenerator(
            mixed, config=GeneratorConfig(comparator_budget=1)
        )
        test = generator.analog_element_test("Rg")
        # With only the middle comparator allowed, the recipe must use it.
        assert test.comparator_index in (None, 1)

    def test_sensitivity_matrix_cached(self):
        mixed = fig4_mixed_circuit()
        generator = MixedSignalTestGenerator(mixed)
        first = generator.sensitivities
        second = generator.sensitivities
        assert first is second


class TestGradeDigital:
    def test_compacted_vectors_cover_the_detected_universe(self, report):
        mixed, result = report
        run = result.digital_run
        # Grade against exactly the faults the ATPG proved detectable
        # (under Fc the full universe includes untestable faults).
        detected = [
            r.fault
            for r in run.results
            if r.status.value == "detected"
        ]
        graded = result.grade_digital(mixed.digital, faults=detected)
        reference = coverage(
            mixed.digital, run.vectors, detected, engine="reference"
        )
        assert graded == reference == 1.0

    def test_requires_a_digital_run(self):
        from repro.core import MixedTestReport

        with pytest.raises(ValueError, match="no digital"):
            MixedTestReport("empty").grade_digital(None)

    def test_diagnostics_exposed_and_none_when_decoded(self, report):
        _mixed, result = report
        assert result.digital_diagnostics is not None
        assert result.digital_diagnostics["digital_engine"] == "compiled"
