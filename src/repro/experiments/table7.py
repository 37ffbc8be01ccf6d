"""Table 7: conversion-block element coverage inside the mixed circuit.

Case 2 of the ladder test: a tap is usable only if the composite value
its comparator carries propagates through the digital block (computed by
the Table 5 analysis).  Blocked taps become dashed cells; their
resistors merge into neighbouring observable taps with looser E.D. —
the paper shows this for c432, c499 and c1355.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..circuits import example3_mixed_circuit
from ..conversion import LadderCoverage, constrained_ladder_coverage
from ..core import MixedSignalTestGenerator, format_table

__all__ = ["Table7Result", "run"]

#: the digital blocks the paper reports in Table 7.
TABLE7_CIRCUITS = ("c432", "c499", "c1355")


@dataclass
class Table7Result:
    """Constrained ladder coverage per digital block."""

    coverages: dict[str, LadderCoverage]

    def render(self) -> str:
        sections = []
        for name, coverage in self.coverages.items():
            headers = ["T"] + coverage.taps
            element_row = ["E"] + coverage.elements
            ed_row = ["ED[%]"] + list(coverage.ed_percent)
            sections.append(
                format_table(
                    headers, [element_row, ed_row],
                    title=f"Table 7: comparators connected to {name}",
                )
            )
        return "\n\n".join(sections)

    def to_document(self) -> dict:
        """Every reproduced number as JSON (dashed cells as ``"inf"``)."""
        return {
            "experiment": "table7",
            "coverages": {
                name: coverage.to_document()
                for name, coverage in self.coverages.items()
            },
        }


def run(
    circuits: tuple[str, ...] = TABLE7_CIRCUITS,
    bench_dir: str | Path | None = None,
) -> Table7Result:
    """Compute case-2 ladder coverage for each digital block."""
    coverages: dict[str, LadderCoverage] = {}
    for name in circuits:
        mixed = example3_mixed_circuit(name, bench_dir=bench_dir)
        generator = MixedSignalTestGenerator(mixed)
        mask = generator.comparator_observability()
        coverages[name] = constrained_ladder_coverage(
            mixed.adc, lambda i, mask=mask: mask[i]
        )
    return Table7Result(coverages)


if __name__ == "__main__":
    print(run().render())
