"""The factorized engine's walk against the reference engine, and its
kernel traffic against a recorded list.

:meth:`repro.analog.faultsim.PreparedProgram.run` decides the own-step
verdicts over arrays and walks each surviving fault's tail one stimulus
at a time.  Both halves must keep the reference engine's step-by-step
semantics (:func:`repro.analog.faultsim.step_order`, first detecting
step wins):

* a hypothesis property over synthetic programs on ``rc_ladder(3)``
  with the fig3 digital block: elements with no, one and several own
  steps, stimuli that share a frequency but not an amplitude, two
  digital vectors (one propagates every code change, one masks the
  change between ``00`` and ``10``), and repeated faults;
* a fixed program on which conversion-masked own steps, tail
  detections and undetected faults all occur, and a 64-comparator
  converter whose codes do not fit a 62-bit key;
* the ``(frequency, pairs)`` sequence of ``deviation_batch`` calls of
  seeded fig4 and example3-c432 campaigns equals a list recorded before
  the array walk: one batch per frequency for the own steps, then every
  tail gain a lazy batch of one, in the same order.

Regenerate the recorded calls (after an *intentional* change of the
engine's kernel traffic)::

    PYTHONPATH=src python tests/analog/test_prepared_walk.py
"""

import json
import sys
from functools import cache
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parents[2] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analog import ReferenceEngine
from repro.analog.faultsim import FaultSpec, PreparedProgram
from repro.api import CampaignConfig, Workbench
from repro.atpg import AnalogStimulus
from repro.circuits import (
    FIG3_CONSTRAINT_LINES,
    LADDER_OUTPUT,
    LADDER_SOURCE,
    rc_ladder,
)
from repro.conversion import FlashAdc
from repro.core import run_campaign
from repro.core.coverage import AnalogElementTest, AnalogTestStatus
from repro.core.mixed_circuit import MixedSignalCircuit
from repro.digital.library import fig3_circuit
from repro.digital.netlist import Circuit
from repro.spice import FactorizedMna, MnaSolver

CALLS = Path(__file__).parent / "goldens" / "deviation_batch_calls.json"
#: (circuit, faults per element, seed) of the recorded campaigns.
RECORDED = (("fig4", 8, 11), ("example3-c432", 3, 5))

FREQUENCIES = (2.0e4, 1.0e5, 3.0e5)
#: good peak amplitudes, placed around the converter's 1 V and 2 V
#: thresholds and far enough from them that no faulty peak of the
#: DEVIATIONS below lands within rounding of one.
PEAKS = (0.9, 1.1, 1.5, 1.9, 2.1)
DEVIATIONS = (-0.5, -0.2, -0.05, 0.05, 0.2, 0.5, 1.0)
#: fig3's free inputs ``(l1, l4)``: under the first vector every change
#: of code reaches an output, under the second ``00`` ↔ ``10`` does not.
VECTORS = ({"l1": 1, "l4": 0}, {"l1": 0, "l4": 1})


def _outcome_key(outcomes):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in outcomes
    ]


def _step(element, frequency, amplitude, vector):
    return AnalogElementTest(
        element=element,
        status=AnalogTestStatus.TESTABLE,
        parameter="AAC",
        ed_percent=40.0,
        stimulus=AnalogStimulus(amplitude=amplitude, frequency_hz=frequency),
        vector=dict(vector),
        observing_output="Vo1",
    )


@cache
def _ladder():
    """The mixed circuit, and the good gain at each frequency."""
    analog = rc_ladder(3)
    mixed = MixedSignalCircuit(
        name="walk-ladder",
        analog=analog,
        analog_source=LADDER_SOURCE,
        analog_output=LADDER_OUTPUT,
        adc=FlashAdc(n_comparators=2, v_top=3.0),
        digital=fig3_circuit(),
        converter_lines=list(FIG3_CONSTRAINT_LINES),
    )
    solver = MnaSolver(analog, source=LADDER_SOURCE)
    gains = {
        frequency: abs(solver.solve(frequency).voltage(LADDER_OUTPUT))
        for frequency in FREQUENCIES
    }
    return mixed, gains


def _program(step_specs):
    """Steps from ``(element, frequency, peak, vector index)`` specs."""
    mixed, gains = _ladder()
    return [
        _step(element, frequency, peak / gains[frequency], VECTORS[vector])
        for element, frequency, peak, vector in step_specs
    ]


def _assert_matches_reference(mixed, steps, faults):
    outcomes, _ = PreparedProgram(mixed, steps).run(faults)
    oracle = ReferenceEngine().run(mixed, steps, faults)
    assert _outcome_key(outcomes) == _outcome_key(oracle)
    return outcomes


ELEMENTS = ("R1", "C1", "R2", "C2", "R3", "C3")
#: A program on which visiting the stimuli in their own order, not in
#: the order of their first step past R2's own, stops R2's tail at step
#: 2 (R3) instead of step 3 (C1).
TAIL_ORDER = (
    [
        ("C2", 3.0e5, 1.5, 1),
        ("R2", 3.0e5, 1.9, 1),
        ("R3", 2.0e4, 2.1, 1),
        ("C1", 3.0e5, 1.5, 0),
        ("R2", 1.0e5, 0.9, 0),
        ("C1", 3.0e5, 1.9, 0),
    ],
    [FaultSpec("R2", 1.0, 1.0)],
)


@st.composite
def _programs(draw):
    stimuli = draw(
        st.lists(
            st.tuples(st.sampled_from(FREQUENCIES), st.sampled_from(PEAKS)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    step_specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ELEMENTS),
                st.sampled_from(stimuli),
                st.integers(0, len(VECTORS) - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    faults = draw(
        st.lists(
            st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(DEVIATIONS)),
            min_size=1,
            max_size=12,
        )
    )
    return (
        [(e, f, p, v) for e, (f, p), v in step_specs],
        [FaultSpec(element, deviation, 1.0) for element, deviation in faults],
    )


class TestWalkAgainstReference:
    @given(_programs())
    @example(TAIL_ORDER)
    @settings(max_examples=60, deadline=None)
    def test_synthetic_programs(self, program):
        step_specs, faults = program
        mixed, _ = _ladder()
        _assert_matches_reference(mixed, _program(step_specs), faults)

    def test_fixed_program_takes_every_path(self):
        mixed, _ = _ladder()
        step_specs = [
            ("R1", 1.0e5, 1.1, 1),
            ("C2", 3.0e5, 1.5, 0),
            ("R1", 1.0e5, 1.9, 0),  # R1's second own step, same frequency
            ("R3", 2.0e4, 2.1, 0),
            ("C2", 1.0e5, 1.1, 0),
        ]
        steps = _program(step_specs)
        faults = [
            FaultSpec(element, deviation, 1.0)
            for element in ELEMENTS
            for deviation in DEVIATIONS
        ]
        faults += faults[:5]  # repeated faults
        outcomes = _assert_matches_reference(mixed, steps, faults)

        def masked_at_own_step(fault):
            own = next(
                (step for step in steps if step.element == fault.element),
                None,
            )
            if own is None:
                return False
            stimulus = own.stimulus
            return mixed.converter_code(
                stimulus.frequency_hz, stimulus.amplitude
            ) == mixed.converter_code(
                stimulus.frequency_hz,
                stimulus.amplitude,
                {fault.element: fault.deviation},
            )

        assert any(masked_at_own_step(fault) for fault in faults)
        assert any(
            o.detected and o.detecting_target != o.element for o in outcomes
        )
        assert any(not o.detected for o in outcomes)
        owners = {step.element for step in steps}
        assert any(o.element not in owners and o.detected for o in outcomes)

    def test_converter_wider_than_a_62_bit_key(self):
        # 64 comparators at 1 V … 64 V; the digital block is the parity
        # of the code, observed through an AND with the free input.
        width = 64
        lines = [f"c{i}" for i in range(width)]
        digital = Circuit("parity")
        for name in lines + ["e"]:
            digital.add_input(name)
        previous = lines[0]
        for i, line in enumerate(lines[1:], start=1):
            digital.xor(f"p{i}", previous, line)
            previous = f"p{i}"
        digital.and_("o", previous, "e")
        digital.add_output("o")
        digital.validate()
        analog = rc_ladder(3)
        mixed = MixedSignalCircuit(
            name="wide",
            analog=analog,
            analog_source=LADDER_SOURCE,
            analog_output=LADDER_OUTPUT,
            adc=FlashAdc(n_comparators=width, v_top=width + 1.0),
            digital=digital,
            converter_lines=lines,
        )
        gain = abs(
            MnaSolver(analog, source=LADDER_SOURCE)
            .solve(1.0e5)
            .voltage(LADDER_OUTPUT)
        )
        steps = [
            _step("R1", 1.0e5, 40.5 / gain, {"e": 0}),
            _step("C2", 1.0e5, 40.5 / gain, {"e": 1}),
            _step("R3", 1.0e5, 60.5 / gain, {"e": 1}),
        ]
        faults = [
            FaultSpec(element, deviation, 1.0)
            for element in ELEMENTS
            for deviation in DEVIATIONS
        ]
        outcomes = _assert_matches_reference(mixed, steps, faults)
        assert any(o.detected for o in outcomes)
        assert any(not o.detected for o in outcomes)


def _record_calls(session, name, faults_per_element, seed, monkeypatch):
    mixed = session.circuit(name)
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    calls = []
    original = FactorizedMna.deviation_batch

    def spy(self, faults, node):
        calls.append(
            [
                self.frequency_hz.hex(),
                [[element, float(d).hex()] for element, d in faults],
            ]
        )
        return original(self, faults, node)

    monkeypatch.setattr(FactorizedMna, "deviation_batch", spy)
    try:
        run_campaign(
            mixed,
            report,
            config=CampaignConfig(
                faults_per_element=faults_per_element, seed=seed
            ),
        )
    finally:
        monkeypatch.undo()
    return calls


class TestKernelTraffic:
    @pytest.mark.parametrize(
        "name, faults_per_element, seed",
        RECORDED,
        ids=[name for name, _, _ in RECORDED],
    )
    def test_deviation_batch_calls_as_recorded(
        self, name, faults_per_element, seed, monkeypatch
    ):
        recorded = json.loads(CALLS.read_text())[name]
        assert recorded["faults_per_element"] == faults_per_element
        assert recorded["seed"] == seed
        calls = _record_calls(
            Workbench().session(), name, faults_per_element, seed, monkeypatch
        )
        assert calls == recorded["calls"]


if __name__ == "__main__":
    session = Workbench().session()
    patch = pytest.MonkeyPatch()
    CALLS.write_text(
        json.dumps(
            {
                name: {
                    "faults_per_element": faults_per_element,
                    "seed": seed,
                    "calls": _record_calls(
                        session, name, faults_per_element, seed, patch
                    ),
                }
                for name, faults_per_element, seed in RECORDED
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {CALLS}")
