"""Testing the conversion block's elements (Tables 6 and 7).

"The A/D conversion testing is similar to the analog testing since we
propose to test the elements (Rc1, Rc2, Rc3) of the circuit by measuring
the voltage references."  Each ladder resistor is tested through a tap
voltage, with the same tolerance-box/masking-budget machinery as the
analog block.

Two modelling details recover the paper's Table 6 structure:

* each tap is referenced to its **nearer rail** — bottom-half taps are
  measured as ``Vti`` (distance from ground), top-half taps as
  ``Vtop − Vti`` (distance from the reference) — which is how a ladder
  tap is actually compared on a tester and what makes the profile a
  symmetric tent (taps near a rail are tight; the middle tap is loose,
  the paper's ``Vt8 → 91 %``);
* with 16 resistors and 15 taps the element↔tap map is ``Vti → Ri`` on
  the bottom half, ``Vti → R(i+1)`` on the top half, and the middle tap
  tests the merged pair ``R8,R9`` — exactly the paper's column labels.

Table 7 (case 2) restricts the observable taps to comparators whose
composite value can propagate through the digital block; a resistor
whose tap is unobservable falls back to the nearest observable tap
(the paper's merged cells) or becomes untestable (dashed cells).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from ..analog.deviation import json_float
from .flash_adc import FlashAdc

__all__ = [
    "tap_sensitivity",
    "tap_metric",
    "tap_element_map",
    "LadderCoverage",
    "ladder_coverage",
    "constrained_ladder_coverage",
]


def tap_metric(adc: FlashAdc, tap_index: int) -> float:
    """The tap's tester-referenced measurement (distance to nearer rail)."""
    vt = adc.threshold(tap_index)
    if tap_index < adc.n_comparators // 2:
        return vt
    return adc.v_top - vt


def tap_sensitivity(adc: FlashAdc, tap_index: int, resistor_index: int) -> float:
    """Closed-form normalized sensitivity ∂ln M_i / ∂ln R_j (0-based).

    ``M_i`` is the rail-referenced tap metric of :func:`tap_metric`:
    ``Vt_i`` for bottom-half taps, ``Vtop − Vt_i`` above the middle.
    """
    values = adc.resistor_values
    total = sum(values)
    below = sum(values[: tap_index + 1])
    above = total - below
    r = values[resistor_index]
    if tap_index < adc.n_comparators // 2:
        # metric = V·below/total
        if resistor_index <= tap_index:
            return r * (1.0 / below - 1.0 / total)
        return -r / total
    # metric = V·above/total
    if resistor_index > tap_index:
        return r * (1.0 / above - 1.0 / total)
    return -r / total


def tap_element_map(n_comparators: int) -> list[tuple[int, ...]]:
    """0-based resistor indices tested at each tap.

    Bottom-half tap *t* tests resistor *t*; top-half tap *t* tests
    resistor *t+1*; the middle tap tests the straddling pair — for the
    paper's 15/16 ladder: Vt1→R1 ... Vt7→R7, Vt8→(R8,R9), Vt9→R10 ...
    Vt15→R16.
    """
    middle = (n_comparators - 1) // 2
    mapping: list[tuple[int, ...]] = []
    for tap in range(n_comparators):
        if tap < middle:
            mapping.append((tap,))
        elif tap == middle and n_comparators % 2 == 1:
            mapping.append((tap, tap + 1))
        else:
            mapping.append((tap + 1,))
    return mapping


@dataclass
class LadderCoverage:
    """Per-tap element coverage of the conversion block."""

    #: tap labels Vt1..VtN.
    taps: list[str]
    #: element(s) tested at each tap (rendered like the paper: "R8,R9").
    elements: list[str]
    #: guaranteed-detectable deviation percent per tap (inf = dash).
    ed_percent: list[float]

    def rows(self) -> list[tuple[str, str, float]]:
        """(tap, element, ED%) triplets for table rendering."""
        return list(zip(self.taps, self.elements, self.ed_percent))

    def to_document(self) -> dict:
        """Taps, elements and E.D. as JSON (dashed cells as ``"inf"``)."""
        return {
            "taps": list(self.taps),
            "elements": list(self.elements),
            "ed_percent": [json_float(ed) for ed in self.ed_percent],
        }


def _worst_case_ed(
    adc: FlashAdc,
    tap_index: int,
    resistor_index: int,
    tolerance: float,
    element_tolerance: float,
    max_deviation: float = 8.0,
    resolution: float = 1e-4,
) -> float:
    """Bisect the guaranteed-detectable deviation of one (tap, R) pair."""
    n = len(adc.resistor_values)
    budget = sum(
        abs(tap_sensitivity(adc, tap_index, j)) * element_tolerance
        for j in range(n)
        if j != resistor_index
    )
    nominal = tap_metric(adc, tap_index)

    def detectable(deviation: float) -> bool:
        values = list(adc.resistor_values)
        values[resistor_index] *= 1.0 + deviation
        shifted = tap_metric(replace(adc, resistor_values=values), tap_index)
        return abs(shifted - nominal) / nominal > tolerance + budget

    best = math.inf
    for direction in (+1.0, -1.0):
        ceiling = min(max_deviation, 0.999) if direction < 0 else max_deviation
        if not detectable(direction * ceiling):
            continue
        low, high = 0.0, ceiling
        while high - low > resolution:
            mid = 0.5 * (low + high)
            if detectable(direction * mid):
                high = mid
            else:
                low = mid
        best = min(best, high)
    return best


def _element_label(indices: tuple[int, ...]) -> str:
    return ",".join(f"R{i + 1}" for i in indices)


def ladder_coverage(
    adc: FlashAdc,
    tolerance: float = 0.05,
    element_tolerance: float = 0.05,
    observable: Sequence[bool] | None = None,
) -> LadderCoverage:
    """Table 6: element coverage with every tap directly accessible.

    Args:
        tolerance: tap-metric tolerance box (paper: 5 %).
        element_tolerance: fault-free ladder-resistor tolerance.
        observable: per-comparator accessibility mask (None = all
        accessible); unobservable taps yield dashed cells.
    """
    n_taps = adc.n_comparators
    if observable is None:
        observable = [True] * n_taps
    mapping = tap_element_map(n_taps)
    taps = [f"Vt{i + 1}" for i in range(n_taps)]
    elements: list[str] = []
    eds: list[float] = []
    for tap_index in range(n_taps):
        if not observable[tap_index]:
            elements.append("-")
            eds.append(math.inf)
            continue
        worst = 0.0
        for resistor_index in mapping[tap_index]:
            ed = _worst_case_ed(
                adc, tap_index, resistor_index, tolerance, element_tolerance
            )
            worst = max(worst, ed)
        elements.append(_element_label(mapping[tap_index]))
        eds.append(100.0 * worst if math.isfinite(worst) else math.inf)
    return LadderCoverage(taps, elements, eds)


def constrained_ladder_coverage(
    adc: FlashAdc,
    can_observe: Callable[[int], bool],
    tolerance: float = 0.05,
    element_tolerance: float = 0.05,
) -> LadderCoverage:
    """Table 7: coverage when taps are observed *through* the digital block.

    ``can_observe(i)`` decides whether a composite value on comparator
    ``i`` propagates to a primary output of the mixed circuit (computed
    by the mixed-signal generator).  Unobservable taps yield dashed
    cells; their resistors are then covered — more loosely — through the
    nearest observable tap, mirroring the paper's merged cells.
    """
    n_taps = adc.n_comparators
    mask = [bool(can_observe(i)) for i in range(n_taps)]
    base = ladder_coverage(adc, tolerance, element_tolerance, observable=mask)
    mapping = tap_element_map(n_taps)
    elements = list(base.elements)
    eds = list(base.ed_percent)
    for tap_index in range(n_taps):
        if mask[tap_index]:
            continue
        candidates = [
            (abs(other - tap_index), other)
            for other in range(n_taps)
            if mask[other]
        ]
        if not candidates:
            continue
        _distance, other = min(candidates)
        merged_indices = tuple(
            sorted(set(mapping[tap_index]) | set(mapping[other]))
        )
        worst = eds[other] / 100.0 if math.isfinite(eds[other]) else 0.0
        for resistor_index in mapping[tap_index]:
            ed = _worst_case_ed(
                adc, other, resistor_index, tolerance, element_tolerance
            )
            worst = max(worst, ed)
        if math.isfinite(worst):
            elements[other] = _element_label(merged_indices)
            eds[other] = 100.0 * worst
    return LadderCoverage(base.taps, elements, eds)
