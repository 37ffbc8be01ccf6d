"""Result containers for the mixed-signal test-generation flow."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from ..atpg import AtpgRun, AnalogStimulus, MixedTestStep
from ..conversion import LadderCoverage
from .stimulus import Bound

__all__ = ["AnalogTestStatus", "AnalogElementTest", "MixedTestReport"]


class AnalogTestStatus(str, Enum):
    """Outcome of test generation for one analog element."""

    TESTABLE = "testable"
    #: no parameter shows a finite worst-case deviation for the element.
    UNTESTABLE_MEASUREMENT = "untestable-measurement"
    #: the deviation never flips any comparator (conversion masks it).
    UNTESTABLE_ACTIVATION = "untestable-activation"
    #: comparators flip but no composite value reaches a primary output.
    UNTESTABLE_PROPAGATION = "untestable-propagation"


@dataclass
class AnalogElementTest:
    """Complete test recipe for one analog element (or why none exists)."""

    element: str
    status: AnalogTestStatus
    parameter: str | None = None
    #: guaranteed-detectable deviation, percent.
    ed_percent: float = math.inf
    bound: Bound | None = None
    #: 0-based index of the comparator where the fault was activated.
    comparator_index: int | None = None
    stimulus: AnalogStimulus | None = None
    #: assignment to the free digital inputs propagating the fault.
    vector: dict[str, int] | None = None
    observing_output: str | None = None

    @property
    def testable(self) -> bool:
        """True when a full activate-and-propagate recipe was found."""
        return self.status is AnalogTestStatus.TESTABLE

    def as_step(self) -> MixedTestStep:
        """Render as one step of a mixed-signal test program."""
        from ..atpg import DigitalVector

        vector = (
            DigitalVector.from_mapping(self.vector, targets=(self.element,))
            if self.vector is not None
            else None
        )
        return MixedTestStep(
            target=f"{self.element} (E.D. {self.ed_percent:.1f}% via "
            f"{self.parameter})",
            stimulus=self.stimulus,
            vector=vector,
            observe=self.observing_output,
        )


@dataclass
class MixedTestReport:
    """Everything the flow produces for one mixed-signal circuit."""

    circuit_name: str
    analog_tests: list[AnalogElementTest] = field(default_factory=list)
    #: which comparators can propagate a composite value (Table 5 data).
    comparator_observability: list[bool] = field(default_factory=list)
    conversion_coverage: LadderCoverage | None = None
    digital_run: AtpgRun | None = None
    digital_run_unconstrained: AtpgRun | None = None

    # ------------------------------------------------------------------
    @property
    def digital_diagnostics(self) -> dict | None:
        """Engine/cache observability of the digital ATPG run.

        ``None`` for reports without a digital run or reports decoded
        from artifacts (which archive only the headline statistics).
        """
        if self.digital_run is None:
            return None
        return getattr(self.digital_run, "diagnostics", None)

    def grade_digital(self, circuit, faults: list | None = None) -> float:
        """Independently fault-grade the emitted digital vector set.

        Replays the ATPG stage's (compacted) vectors through the
        compiled cone-limited fault simulator against ``faults``
        (default: the collapsed universe the ATPG itself targeted).
        This measures the paper's ``#vect`` claim with a simulator that
        shares no code with the BDD algebra that produced the vectors.
        """
        from ..digital.faults import collapse_faults, fault_universe
        from ..digital.simulate import coverage as fault_coverage

        if self.digital_run is None:
            raise ValueError("report has no digital ATPG run to grade")
        if faults is None:
            faults = collapse_faults(circuit, fault_universe(circuit))
        return fault_coverage(circuit, self.digital_run.vectors, faults)

    @property
    def n_analog_testable(self) -> int:
        """Analog elements with a complete test recipe."""
        return sum(1 for t in self.analog_tests if t.testable)

    @property
    def analog_coverage(self) -> float:
        """Fraction of analog elements testable through the whole chain."""
        if not self.analog_tests:
            return 1.0
        return self.n_analog_testable / len(self.analog_tests)

    @property
    def n_blocked_comparators(self) -> int:
        """Comparators through which no composite value propagates."""
        return sum(1 for ok in self.comparator_observability if not ok)

    def summary(self) -> str:
        """Multi-line human-readable recap."""
        lines = [f"== mixed-signal test report: {self.circuit_name} =="]
        lines.append(
            f"analog: {self.n_analog_testable}/{len(self.analog_tests)} "
            f"elements testable"
        )
        if self.comparator_observability:
            blocked = [
                f"Vt{i + 1}"
                for i, ok in enumerate(self.comparator_observability)
                if not ok
            ]
            lines.append(
                "comparators blocked: " + (", ".join(blocked) or "none")
            )
        if self.digital_run is not None:
            run = self.digital_run
            lines.append(
                f"digital (constrained): {run.n_faults} faults, "
                f"{run.n_untestable} untestable, {run.n_vectors} vectors, "
                f"{run.cpu_seconds:.2f}s"
            )
        if self.digital_run_unconstrained is not None:
            run = self.digital_run_unconstrained
            lines.append(
                f"digital (stand-alone): {run.n_faults} faults, "
                f"{run.n_untestable} untestable, {run.n_vectors} vectors, "
                f"{run.cpu_seconds:.2f}s"
            )
        return "\n".join(lines)

    def program(self) -> list[MixedTestStep]:
        """The analog part of the emitted test program."""
        return [t.as_step() for t in self.analog_tests if t.testable]
