"""Table 6: conversion-circuit element coverage with direct access.

The 15-comparator/16-resistor ladder tested through its tap voltages:
the tent-shaped E.D. profile (tight at the rails, loose in the middle,
merged ``R8,R9`` at the center tap).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..conversion import FlashAdc, LadderCoverage, ladder_coverage
from ..core import format_table

__all__ = ["Table6Result", "run"]


@dataclass
class Table6Result:
    """The direct-access ladder coverage."""

    coverage: LadderCoverage

    def render(self) -> str:
        headers = ["T"] + self.coverage.taps
        element_row = ["E"] + self.coverage.elements
        ed_row = ["ED[%]"] + [ed for ed in self.coverage.ed_percent]
        return format_table(
            headers, [element_row, ed_row],
            title=(
                "Table 6: conversion-circuit element coverage "
                "(inputs/outputs directly accessed)"
            ),
        )

    def to_document(self) -> dict:
        """Every reproduced number as JSON (dashed cells as ``"inf"``)."""
        return {"experiment": "table6", **self.coverage.to_document()}


def run(n_comparators: int = 15, v_top: float = 5.0) -> Table6Result:
    """Compute the Table 6 coverage on a nominal ladder."""
    adc = FlashAdc(n_comparators=n_comparators, v_top=v_top)
    return Table6Result(ladder_coverage(adc))


if __name__ == "__main__":
    print(run().render())
