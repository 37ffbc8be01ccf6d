"""Table 1: the stimulus (amplitude, frequency) per parameter kind and bound.

Regenerates the paper's stimulus-selection table on the Figure 2 filter:
for every performance parameter and both tolerance-box bounds, the sine
``(A, f)`` to apply, the comparator values in the fault-free and faulty
circuits, and the resulting composite value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import bandpass_filter, bandpass_parameters
from ..core import Bound, StimulusChoice, choose_stimulus, format_table

__all__ = ["Table1Result", "run"]


@dataclass
class Table1Result:
    """All (parameter, bound) stimulus rows."""

    choices: list[StimulusChoice]
    vref: float

    def render(self) -> str:
        headers = [
            "Parm (T)", "Test", "A [V]", "f [Hz]",
            "Vd good", "Vd faulty", "composite",
        ]
        rows = []
        for choice in self.choices:
            rows.append(
                [
                    choice.parameter,
                    f"T {choice.bound.value}",
                    f"{choice.stimulus.amplitude:.4g}",
                    f"{choice.stimulus.frequency_hz:.4g}",
                    choice.good_value,
                    choice.faulty_value,
                    choice.composite.value,
                ]
            )
        return format_table(
            headers, rows,
            title=(
                f"Table 1: stimulus per parameter/bound "
                f"(Fig. 2 filter, Vref = {self.vref:.3g} V)"
            ),
        )

    def to_document(self) -> dict:
        """Every (parameter, bound) row as JSON, floats exact."""
        return {
            "experiment": "table1",
            "vref": self.vref,
            "rows": [
                {
                    "parameter": choice.parameter,
                    "kind": choice.kind.value,
                    "bound": choice.bound.value,
                    "amplitude": choice.stimulus.amplitude,
                    "frequency_hz": choice.stimulus.frequency_hz,
                    "good_value": choice.good_value,
                    "faulty_value": choice.faulty_value,
                    "composite": choice.composite.value,
                }
                for choice in self.choices
            ],
        }


def run(vref: float = 1.0, x: float = 0.05) -> Table1Result:
    """Build the stimulus table for every band-pass parameter and bound."""
    circuit = bandpass_filter()
    choices: list[StimulusChoice] = []
    for parameter in bandpass_parameters():
        for bound in (Bound.UPPER, Bound.LOWER):
            choices.append(
                choose_stimulus(circuit, parameter, bound, vref, x=x)
            )
    return Table1Result(choices, vref)


if __name__ == "__main__":
    print(run().render())
