"""Example 1 (section 2.1.1): worst-case deviation matrix of the band-pass.

Regenerates the paper's equation-1 matrix — five parameters × eight
elements of the Figure 2 filter, 5 % tolerance boxes — and the resulting
analog test set (the paper selects {A1, A2}).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analog import (
    DeviationMatrix,
    deviation_matrix,
    select_parameters_maxcoverage,
    TestSetSelection,
)
from ..circuits import bandpass_filter, bandpass_parameters
from ..core import format_table

__all__ = ["Example1Result", "run"]


@dataclass
class Example1Result:
    """The matrix plus the selected analog test set."""

    matrix: DeviationMatrix
    selection: TestSetSelection

    def render(self) -> str:
        """The paper-style table: rows = parameters, columns = elements."""
        headers = ["T \\ E"] + list(self.matrix.elements)
        rows = []
        for parameter in self.matrix.parameters:
            rows.append([parameter] + self.matrix.row(parameter))
        table = format_table(
            headers,
            rows,
            title=(
                "Example 1: worst-case element deviation [%] "
                "(Fig. 2 band-pass, 5% boxes)"
            ),
        )
        coverage = ", ".join(
            f"{element}<-{parameter}({ed:.1f}%)"
            for element, (parameter, ed) in sorted(
                self.selection.element_coverage.items()
            )
        )
        return (
            f"{table}\n"
            f"selected test set: {{{', '.join(self.selection.parameters)}}}\n"
            f"element coverage: {coverage}"
        )

    def to_document(self) -> dict:
        """Every reproduced number as JSON (the golden's content)."""
        return {
            "experiment": "example1",
            "matrix": self.matrix.to_document(),
            "selection": self.selection.to_document(),
        }


def run(adversary: str = "sensitivity") -> Example1Result:
    """Compute the Example 1 matrix and test-set selection."""
    circuit = bandpass_filter()
    matrix = deviation_matrix(
        circuit, bandpass_parameters(), adversary=adversary
    )
    selection = select_parameters_maxcoverage(matrix)
    return Example1Result(matrix, selection)


if __name__ == "__main__":
    print(run().render())
