"""Tests for ladder element testing (Tables 6/7 machinery)."""

import math
from dataclasses import replace

import pytest

from repro.conversion import (
    FlashAdc,
    constrained_ladder_coverage,
    ladder_coverage,
    tap_sensitivity,
)
from repro.conversion.ladder_test import tap_element_map, tap_metric


class TestSensitivity:
    def test_matches_finite_difference(self):
        adc = FlashAdc(n_comparators=7)
        step = 1e-6
        for tap in range(7):
            for res in range(8):
                nominal = tap_metric(adc, tap)
                values = list(adc.resistor_values)
                values[res] *= 1.0 + step
                shifted = tap_metric(replace(adc, resistor_values=values), tap)
                numeric = (shifted - nominal) / (nominal * step)
                analytic = tap_sensitivity(adc, tap, res)
                assert numeric == pytest.approx(analytic, abs=1e-4), (tap, res)

    def test_bottom_tap_dominated_by_bottom_resistor(self):
        adc = FlashAdc(n_comparators=15)
        s_own = abs(tap_sensitivity(adc, 0, 0))
        s_far = abs(tap_sensitivity(adc, 0, 10))
        assert s_own > 5 * s_far


class TestElementMap:
    def test_paper_mapping(self):
        mapping = tap_element_map(15)
        assert mapping[0] == (0,)  # Vt1 -> R1
        assert mapping[6] == (6,)  # Vt7 -> R7
        assert mapping[7] == (7, 8)  # Vt8 -> R8,R9 (merged middle)
        assert mapping[8] == (9,)  # Vt9 -> R10
        assert mapping[14] == (15,)  # Vt15 -> R16

    def test_even_count_no_merge(self):
        mapping = tap_element_map(4)
        assert all(len(entry) == 1 for entry in mapping)


class TestCoverage:
    def test_tent_shape(self):
        coverage = ladder_coverage(FlashAdc())
        eds = coverage.ed_percent
        middle = len(eds) // 2
        assert eds[middle] == max(eds)
        assert eds[0] == min(eds)

    def test_symmetry(self):
        eds = ladder_coverage(FlashAdc()).ed_percent
        for left, right in zip(eds, reversed(eds)):
            assert left == pytest.approx(right, rel=0.02)

    def test_rows_render(self):
        coverage = ladder_coverage(FlashAdc(n_comparators=3))
        rows = coverage.rows()
        assert len(rows) == 3
        assert rows[0][0] == "Vt1"

    def test_observable_mask_dashes(self):
        coverage = ladder_coverage(
            FlashAdc(n_comparators=5), observable=[True, False, True, True, True]
        )
        assert coverage.elements[1] == "-"
        assert math.isinf(coverage.ed_percent[1])


class TestConstrainedCoverage:
    def test_all_observable_matches_direct(self):
        adc = FlashAdc()
        direct = ladder_coverage(adc)
        constrained = constrained_ladder_coverage(adc, lambda i: True)
        assert constrained.ed_percent == pytest.approx(direct.ed_percent)

    def test_blocked_tap_merges_into_neighbour(self):
        adc = FlashAdc()
        constrained = constrained_ladder_coverage(adc, lambda i: i != 1)
        assert constrained.elements[1] == "-"
        assert math.isinf(constrained.ed_percent[1])
        # The neighbour now carries R2 as well, with looser coverage.
        merged_cells = [e for e in constrained.elements if "R2" in e.split(",")]
        assert merged_cells
        direct = ladder_coverage(adc)
        neighbour = constrained.elements.index(merged_cells[0])
        assert constrained.ed_percent[neighbour] >= direct.ed_percent[neighbour]

    def test_nothing_observable(self):
        adc = FlashAdc(n_comparators=3)
        constrained = constrained_ladder_coverage(adc, lambda i: False)
        assert all(math.isinf(ed) for ed in constrained.ed_percent)
