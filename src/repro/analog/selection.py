"""Test-set selection on the parameter↔element bipartite graph.

Section 2.1: "another weighted graph is constructed.  This graph is a
bipartite graph that relates primary output parameters and elements.  The
graph problem obtained can be solved by choosing the best parameters to
test the elements."  Concretely: pick the smallest set of measurable
parameters such that every element is covered (its E.D. through some
selected parameter is finite/acceptable), preferring parameters that test
elements tightly.

Two solvers:

* :func:`select_parameters_greedy` — weighted greedy set cover (the
  default; Example 1's answer {A1, A2} falls out of it);
* :func:`select_parameters_mincover` — exact minimum cover by exhaustive
  search over parameter subsets (fine for ≤ 20 parameters), used to
  validate the greedy answer in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .deviation import DeviationMatrix, json_float

__all__ = [
    "TestSetSelection",
    "coverage_document",
    "select_parameters_greedy",
    "select_parameters_mincover",
    "select_parameters_maxcoverage",
]


def _covers(matrix: DeviationMatrix, parameter: str, element: str,
            max_ed_percent: float) -> bool:
    """A parameter covers an element iff its E.D. is finite and in bound."""
    ed = matrix.deviation_percent(parameter, element)
    return math.isfinite(ed) and ed <= max_ed_percent


@dataclass
class TestSetSelection:
    """Outcome of parameter selection."""

    __test__ = False  # not a pytest test class

    #: chosen parameters, in selection order.
    parameters: list[str]
    #: per-element best coverage through the chosen set:
    #: element -> (parameter, E.D. percent).
    element_coverage: dict[str, tuple[str, float]]
    #: elements no parameter covers (E.D. infinite everywhere).
    uncovered: list[str]

    @property
    def complete(self) -> bool:
        """True when every element is testable through the selection."""
        return not self.uncovered

    def to_document(self) -> dict:
        """The selection as JSON (exact floats, ``"inf"`` for untestable)."""
        return {
            "parameters": list(self.parameters),
            "element_coverage": coverage_document(self.element_coverage),
            "uncovered": list(self.uncovered),
        }


def coverage_document(coverage: dict[str, tuple[str, float]]) -> dict:
    """``element -> (parameter, E.D.%)`` as ``{element: [parameter, ed]}``."""
    return {
        element: [parameter, json_float(ed)]
        for element, (parameter, ed) in coverage.items()
    }


def _coverage_through(
    matrix: DeviationMatrix, parameters: list[str]
) -> dict[str, tuple[str, float]]:
    coverage: dict[str, tuple[str, float]] = {}
    for element in matrix.elements:
        best_param, best_ed = "", math.inf
        for parameter in parameters:
            ed = matrix.deviation_percent(parameter, element)
            if ed < best_ed:
                best_param, best_ed = parameter, ed
        if math.isfinite(best_ed):
            coverage[element] = (best_param, best_ed)
    return coverage


def select_parameters_greedy(
    matrix: DeviationMatrix, max_ed_percent: float = math.inf
) -> TestSetSelection:
    """Greedy weighted set cover over the bipartite coverage graph.

    Each round picks the parameter covering the most still-uncovered
    elements; ties break toward the smallest summed E.D. (tighter tests),
    then lexicographically (determinism).
    """
    covered: set[str] = set()
    testable: set[str] = {
        element
        for element in matrix.elements
        if any(
            _covers(matrix, p, element, max_ed_percent)
            for p in matrix.parameters
        )
    }
    chosen: list[str] = []
    while covered != testable:
        best: tuple[int, float, str] | None = None
        for parameter in matrix.parameters:
            if parameter in chosen:
                continue
            news = [
                element
                for element in testable - covered
                if _covers(matrix, parameter, element, max_ed_percent)
            ]
            if not news:
                continue
            ed_sum = sum(
                matrix.deviation_percent(parameter, element) for element in news
            )
            key = (-len(news), ed_sum, parameter)
            if best is None or key < best:
                best = key
        if best is None:
            break
        chosen.append(best[2])
        covered.update(
            element
            for element in testable
            if _covers(matrix, best[2], element, max_ed_percent)
        )
    coverage = _coverage_through(matrix, chosen)
    uncovered = [e for e in matrix.elements if e not in coverage]
    return TestSetSelection(chosen, coverage, uncovered)


def select_parameters_maxcoverage(
    matrix: DeviationMatrix, slack: float = 1e-6
) -> TestSetSelection:
    """The paper's objective: *maximum fault coverage* with fewest tests.

    Maximum fault coverage means every element is tested at its global
    minimum E.D. (the tightest any parameter can achieve for it).  Among
    parameter sets achieving that, a greedy cover picks a small one.  On
    the paper's Example 1 numbers this yields exactly {A1, A2}.
    """
    targets: dict[str, float] = {}
    for element in matrix.elements:
        _param, best_ed = matrix.element_coverage(element)
        if math.isfinite(best_ed):
            targets[element] = best_ed
    chosen: list[str] = []
    covered: set[str] = set()
    while covered != set(targets):
        best: tuple[int, float, str] | None = None
        for parameter in matrix.parameters:
            if parameter in chosen:
                continue
            news = [
                element
                for element, target in targets.items()
                if element not in covered
                and matrix.deviation_percent(parameter, element)
                <= target + slack
            ]
            if not news:
                continue
            ed_sum = sum(
                matrix.deviation_percent(parameter, element)
                for element in news
            )
            key = (-len(news), ed_sum, parameter)
            if best is None or key < best:
                best = key
        if best is None:  # pragma: no cover - targets are achievable
            break
        chosen.append(best[2])
        covered.update(
            element
            for element, target in targets.items()
            if matrix.deviation_percent(best[2], element) <= target + slack
        )
    coverage = _coverage_through(matrix, chosen)
    uncovered = [e for e in matrix.elements if e not in coverage]
    return TestSetSelection(chosen, coverage, uncovered)


def select_parameters_mincover(
    matrix: DeviationMatrix, max_ed_percent: float = math.inf
) -> TestSetSelection:
    """Exact minimum-cardinality cover (exponential in #parameters).

    Among minimum-size covers, the one minimizing the summed element
    E.D.s is returned; used to check greedy optimality in tests and the
    selection ablation bench.
    """
    testable = {
        element
        for element in matrix.elements
        if any(
            _covers(matrix, p, element, max_ed_percent)
            for p in matrix.parameters
        )
    }
    best_subset: tuple[str, ...] | None = None
    best_cost = math.inf
    parameters = list(matrix.parameters)
    if len(parameters) > 20:
        raise ValueError("exact cover beyond 20 parameters is intractable")
    for size in range(0, len(parameters) + 1):
        found_at_size = False
        for subset in itertools.combinations(parameters, size):
            covers = {
                element
                for element in testable
                if any(
                    _covers(matrix, p, element, max_ed_percent)
                    for p in subset
                )
            }
            if covers == testable:
                found_at_size = True
                coverage = _coverage_through(matrix, list(subset))
                cost = sum(ed for _p, ed in coverage.values())
                if cost < best_cost:
                    best_cost = cost
                    best_subset = subset
        if found_at_size:
            break
    chosen = list(best_subset or ())
    coverage = _coverage_through(matrix, chosen)
    uncovered = [e for e in matrix.elements if e not in coverage]
    return TestSetSelection(chosen, coverage, uncovered)
