"""Tests for test-set selection on synthetic deviation matrices."""

import math

import pytest

from repro.analog import (
    DeviationMatrix,
    select_parameters_greedy,
    select_parameters_maxcoverage,
    select_parameters_mincover,
)
from repro.analog.deviation import DeviationResult


def make_matrix(table: dict[str, dict[str, float]]) -> DeviationMatrix:
    """Build a DeviationMatrix from {parameter: {element: ed_percent}}."""
    parameters = list(table)
    elements = sorted({e for row in table.values() for e in row})
    results = {}
    for parameter, row in table.items():
        for element in elements:
            ed = row.get(element, math.inf)
            results[(parameter, element)] = DeviationResult(
                parameter, element,
                math.inf if math.isinf(ed) else ed / 100.0,
                +1, 0.0,
            )
    return DeviationMatrix(parameters, elements, results)


PAPER_LIKE = make_matrix(
    {
        # Mirrors the Example 1 structure: A1 covers only Rg/Rd tightly;
        # A2 covers everything else at its per-element minimum.
        "A1": {"Rg": 10.1, "Rd": 9.9},
        "A2": {"Rg": 176.0, "Rd": 176.0, "R1": 28.9, "R2": 28.9,
               "R3": 28.9, "R4": 28.9, "C1": 27.0, "C2": 28.9},
        "f0": {"R1": 36.3, "R2": 36.3, "R3": 36.3, "R4": 32.2,
               "C1": 36.3, "C2": 36.3},
    }
)


class TestGreedy:
    def test_covers_everything(self):
        selection = select_parameters_greedy(PAPER_LIKE)
        assert selection.complete
        assert set(selection.element_coverage) == set(PAPER_LIKE.elements)

    def test_threshold_limits_cover(self):
        selection = select_parameters_greedy(PAPER_LIKE, max_ed_percent=50.0)
        # Rg/Rd only coverable via A1 under the threshold.
        assert "A1" in selection.parameters

    def test_uncoverable_elements_reported(self):
        matrix = make_matrix({"P": {"a": 10.0}})
        matrix.elements.append("ghost")
        for parameter in matrix.parameters:
            matrix.results[(parameter, "ghost")] = DeviationResult(
                parameter, "ghost", math.inf, +1, 0.0
            )
        selection = select_parameters_greedy(matrix)
        assert selection.uncovered == ["ghost"]
        assert not selection.complete


class TestMaxCoverage:
    def test_selects_paper_answer(self):
        # Max fault coverage on the paper's numbers is exactly {A1, A2}.
        selection = select_parameters_maxcoverage(PAPER_LIKE)
        assert set(selection.parameters) == {"A1", "A2"}

    def test_every_element_at_global_minimum(self):
        selection = select_parameters_maxcoverage(PAPER_LIKE)
        for element, (_param, ed) in selection.element_coverage.items():
            _best_param, best_ed = PAPER_LIKE.element_coverage(element)
            assert ed == pytest.approx(best_ed)


class TestMinCover:
    def test_minimum_cardinality(self):
        selection = select_parameters_mincover(PAPER_LIKE)
        # A2 alone covers every element (at looser EDs).
        assert len(selection.parameters) == 1
        assert selection.complete

    def test_matches_greedy_cardinality_on_small_cases(self):
        greedy = select_parameters_greedy(PAPER_LIKE)
        exact = select_parameters_mincover(PAPER_LIKE)
        assert len(exact.parameters) <= len(greedy.parameters)

    def test_too_many_parameters_guarded(self):
        table = {f"P{i}": {"a": 10.0} for i in range(21)}
        with pytest.raises(ValueError):
            select_parameters_mincover(make_matrix(table))
