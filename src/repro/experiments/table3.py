"""Table 3: Chebyshev-filter element deviations, case 1 vs case 2.

Case 1 tests the analog block alone (direct access to its output); case 2
embeds it in the Example 3 mixed circuit, where the output is observed
through the conversion + digital blocks.  The paper's headline: the
elements are tested with *the same accuracy* in both cases (the
conversion block preserves the measurement), with characteristic E.D.
outliers for deep-feedback elements (their R5 = 113 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analog import (
    DeviationMatrix,
    coverage_document,
    deviation_matrix,
    select_parameters_maxcoverage,
)
from ..circuits import chebyshev_filter, chebyshev_parameters, example3_mixed_circuit
from ..core import AnalogTestStatus, MixedSignalTestGenerator, format_table

__all__ = ["Table3Result", "run"]


@dataclass
class Table3Result:
    """Case-1 coverage plus the case-2 testability verdicts."""

    matrix: DeviationMatrix
    #: element -> (parameter, ED%) from the analog-alone selection.
    case1: dict[str, tuple[str, float]]
    #: element -> (parameter, ED%) through the mixed circuit (case 2);
    #: absent when untestable in case 2.
    case2: dict[str, tuple[str, float]]

    def render(self) -> str:
        headers = [
            "E", "case1 T", "case1 ED[%]", "case2 T", "case2 ED[%]",
        ]
        rows = []
        for element in self.matrix.elements:
            param1, ed1 = self.case1.get(element, ("-", math.inf))
            param2, ed2 = self.case2.get(element, ("-", math.inf))
            rows.append([element, param1, ed1, param2, ed2])
        return format_table(
            headers, rows,
            title=(
                "Table 3: fifth-order Chebyshev element coverage "
                "(case 1 = alone, case 2 = inside the mixed circuit)"
            ),
        )

    def to_document(self) -> dict:
        """Every reproduced number as JSON (the golden's content)."""
        return {
            "experiment": "table3",
            "matrix": self.matrix.to_document(),
            "case1": coverage_document(self.case1),
            "case2": coverage_document(self.case2),
        }

    @property
    def n_same_accuracy(self) -> int:
        """Elements whose case-2 E.D. equals case 1's (within 0.5 %)."""
        matches = 0
        for element, (_param1, ed1) in self.case1.items():
            entry = self.case2.get(element)
            if entry is not None and abs(ed1 - entry[1]) <= 0.5:
                matches += 1
        return matches

    @property
    def same_accuracy(self) -> bool:
        """The paper's Table 3 claim, stated honestly.

        Every case-1-covered element stays covered in case 2; case 2 is
        never *tighter* than case 1 (it observes through more blocks);
        and the overwhelming majority (≥ 85 %) are tested at exactly the
        case-1 accuracy — elements whose tightest stimulus cannot
        activate any comparator fall back to the next parameter, the
        paper's own mechanism.
        """
        covered = 0
        for element, (_param1, ed1) in self.case1.items():
            entry = self.case2.get(element)
            if entry is None:
                return False
            covered += 1
            if entry[1] < ed1 - 0.5:
                return False  # case 2 cannot beat direct access
        if covered == 0:
            return True
        return self.n_same_accuracy >= 0.85 * covered


def run(digital_name: str = "c432") -> Table3Result:
    """Compute both Table 3 cases (case 2 through ``digital_name``)."""
    circuit = chebyshev_filter()
    parameters = chebyshev_parameters()
    matrix = deviation_matrix(circuit, parameters)
    selection = select_parameters_maxcoverage(matrix)
    case1 = dict(selection.element_coverage)

    mixed = example3_mixed_circuit(digital_name)
    # Case 2 reuses the case-1 matrix: parameters are tried tightest
    # first, so wherever activation+propagation succeed the element is
    # tested with the same accuracy as in case 1.
    generator = MixedSignalTestGenerator(mixed, matrix=matrix)
    case2: dict[str, tuple[str, float]] = {}
    for test in generator.analog_tests():
        if test.status is AnalogTestStatus.TESTABLE:
            case2[test.element] = (test.parameter or "-", test.ed_percent)
    return Table3Result(matrix, case1, case2)


if __name__ == "__main__":
    print(run().render())
