"""Property-based tests of the conversion block."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conversion import FlashAdc, thermometer_terms


class TestFlashProperties:
    @given(
        st.floats(min_value=-1.0, max_value=6.0),
        st.floats(min_value=-1.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_code(self, v1, v2):
        adc = FlashAdc()
        low, high = sorted((v1, v2))
        assert adc.code(low) <= adc.code(high)

    @given(st.floats(min_value=-1.0, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_output_is_thermometer(self, v):
        adc = FlashAdc()
        code = adc.convert(v)
        # No 0 -> 1 transition going up the ladder.
        assert all(a >= b for a, b in zip(code, code[1:]))

    @given(
        st.lists(
            st.floats(min_value=100.0, max_value=10_000.0),
            min_size=8, max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_ladder_monotone_taps(self, resistors):
        adc = FlashAdc(n_comparators=7, resistor_values=resistors)
        taps = adc.thresholds()
        assert all(a < b for a, b in zip(taps, taps[1:]))
        assert all(0 < t < adc.v_top for t in taps)

    @given(
        st.floats(min_value=-0.5, max_value=2.0),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_deviation_preserves_thermometer(self, deviation, resistor):
        values = list(FlashAdc().resistor_values)
        values[resistor] *= 1.0 + deviation
        code = FlashAdc(resistor_values=values).convert(2.5)
        assert all(a >= b for a, b in zip(code, code[1:]))


class TestTermProperties:
    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_term_count(self, width):
        lines = [f"t{i}" for i in range(width)]
        terms = thermometer_terms(lines)
        assert len(terms) == width + 1
        # All terms distinct and valid thermometer codes.
        seen = set()
        for term in terms:
            bits = tuple(term[line] for line in lines)
            assert all(a >= b for a, b in zip(bits, bits[1:]))
            seen.add(bits)
        assert len(seen) == width + 1
