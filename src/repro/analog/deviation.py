"""Worst-case element deviation (the paper's E.D.).

Section 2.1 defines the testable deviation of an element ``x`` through a
parameter ``T`` as the *minimum* deviation of ``x`` guaranteed to push
``T`` out of its tolerance box even when every fault-free element sits
wherever inside its own tolerance best masks the fault.  Equation 1 /
Example 1 of the paper tabulates these values for the band-pass filter
(≈10 % for Rd/Rg through A1, zeros where A1 does not depend on the
element, 176 % for weakly-coupled pairs); Table 3 does the same for the
Chebyshev filter, with the R5 = 113 % outlier for a deeply-fed-back
element.

The masking adversary may place each fault-free element anywhere in its
tolerance interval — not only at corners — so a fault is *guaranteed*
detectable only when its effect exceeds the tolerance box **plus** the
adversary's total masking budget.  Three adversary models are provided
(compared in an ablation bench):

* ``"sensitivity"`` (default) — first-order budget
  ``Σᵢ |S(T, xᵢ)| · tolᵢ`` with the fault's own effect measured exactly;
  this is what the sensitivity-based method of [8] computes;
* ``"corners"`` — exhaustive corner enumeration with exact re-measure,
  declaring a fault masked when any corner lands inside the box *or* the
  corner values straddle zero (an interior point then masks exactly);
* ``"none"`` — optimistic bound: fault-free elements stay at nominal.

Every bisection step re-measures the parameter at a *deviation state*
(the faulted element plus, for ``"corners"``, the adversary's corner).
The state is an argument of :meth:`PerformanceParameter.measure` for
that one measurement: the circuit is never mutated.  A deviation matrix
measures every state on one :class:`~repro.spice.MeasurementScope`: the
circuit is compiled once, each state is a stamp delta on that model,
and each distinct state's peak search is shared by every parameter that
needs it (see :mod:`repro.spice.measure`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..spice import AnalogCircuit, AnalogError, MeasurementScope
from .parameters import PerformanceParameter
from .sensitivity import SensitivityMatrix, sensitivity, sensitivity_matrix

__all__ = [
    "DeviationResult",
    "worst_case_deviation",
    "deviation_matrix",
    "DeviationMatrix",
    "UNTESTABLE",
    "json_float",
]

#: Sentinel element deviation meaning "no deviation up to the search bound
#: is guaranteed detectable" — rendered as a dash in the paper's tables.
UNTESTABLE = math.inf

_ADVERSARIES = {"sensitivity", "corners", "none"}


@dataclass
class DeviationResult:
    """Worst-case testable deviation of one (parameter, element) pair."""

    parameter: str
    element: str
    #: minimum guaranteed-detectable relative deviation (0.099 = 9.9 %),
    #: or UNTESTABLE.
    deviation: float
    #: +1 / −1: the fault direction achieving the minimum.
    direction: int
    #: the adversary's masking budget (relative units) that was overcome.
    masking_budget: float


def _relative_shift(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    nominal: float,
    state: dict[str, float],
    scope: MeasurementScope,
) -> float | None:
    """``(T(state) − T_nom)/T_nom``; None when T is unmeasurable (gross).

    An invalid state (unknown element, deviation ≤ −100 %) raises; only
    a failed measurement means "unmeasurable".
    """
    state = circuit.deviation_state(state)
    try:
        value = parameter.measure(circuit, state, scope=scope)
    except AnalogError:
        return None
    return (value - nominal) / abs(nominal)


def _detectable_budget(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    nominal: float,
    element: str,
    deviation: float,
    budget: float,
    tolerance: float,
    scope: MeasurementScope,
) -> bool:
    """First-order test: fault effect must exceed box + masking budget."""
    shift = _relative_shift(
        circuit, parameter, nominal, {element: deviation}, scope
    )
    if shift is None:
        return True  # parameter vanished: grossly out of spec
    return abs(shift) > tolerance + budget


def _detectable_corners(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    nominal: float,
    element: str,
    deviation: float,
    corners: Sequence[dict[str, float]],
    tolerance: float,
    scope: MeasurementScope,
) -> bool:
    """Exact-corner test with interior-masking detection."""
    saw_positive = saw_negative = False
    for corner in corners:
        state = dict(corner)
        state[element] = deviation
        shift = _relative_shift(circuit, parameter, nominal, state, scope)
        if shift is None:
            continue  # this corner is grossly detectable
        if abs(shift) <= tolerance:
            return False  # a corner masks the fault inside the box
        if shift > 0:
            saw_positive = True
        else:
            saw_negative = True
        if saw_positive and saw_negative:
            # The shift changes sign across the tolerance region, so some
            # interior adversary point drives it to zero: masked.
            return False
    return saw_positive or saw_negative


def worst_case_deviation(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    element: str,
    tolerance: float = 0.05,
    element_tolerance: float = 0.05,
    adversary: str = "sensitivity",
    sensitivities: SensitivityMatrix | None = None,
    max_deviation: float = 8.0,
    resolution: float = 1e-3,
    scope: MeasurementScope | None = None,
) -> DeviationResult:
    """Minimum guaranteed-detectable deviation of ``element`` via ``parameter``.

    Args:
        tolerance: the parameter tolerance box half-width (paper: 5 %).
        element_tolerance: fault-free element tolerance (paper: 5 %).
        adversary: ``"sensitivity"``, ``"corners"`` or ``"none"``.
        sensitivities: precomputed matrix (saves re-measuring for
            ``"sensitivity"``).
        max_deviation: search ceiling (8 = 800 %); beyond it the pair is
            declared UNTESTABLE — the paper's dashed cells.
        resolution: bisection absolute tolerance on the deviation.
        scope: the caller's measurement scope (a deviation matrix passes
            its own); without one the search measures on a scope of its
            own.

    Returns:
        the minimum over the two fault directions; negative-direction
        deviations are reported as positive magnitudes (the paper's
        convention).
    """
    if adversary not in _ADVERSARIES:
        raise ValueError(f"adversary must be one of {_ADVERSARIES}")
    if scope is None:
        scope = MeasurementScope(circuit)
    others = [e for e in circuit.element_names() if e != element]
    nominal = parameter.measure(circuit, scope=scope)
    if nominal == 0:
        raise AnalogError(
            f"parameter {parameter.name} is zero at nominal; cannot form "
            "a relative tolerance box"
        )

    if adversary == "sensitivity":
        if sensitivities is None:
            sensitivities = sensitivity_matrix(
                circuit, [parameter], others + [element], scope=scope
            )
        budget = 0.0
        for other in others:
            if other in sensitivities.elements:
                s = sensitivities.of(parameter.name, other)
            else:
                # The caller's matrix was computed over a subset; fill
                # the missing fault-free elements on the fly.
                s = sensitivity(
                    circuit, parameter, other, nominal=nominal, scope=scope
                )
            budget += abs(s) * element_tolerance
    else:
        budget = 0.0

    corners: list[dict[str, float]] = []
    if adversary == "corners":
        if len(others) > 14:
            raise AnalogError(
                f"corner adversary over {len(others)} elements is intractable"
            )
        for signs in itertools.product((-1.0, 1.0), repeat=len(others)):
            corners.append(
                {
                    other: sign * element_tolerance
                    for other, sign in zip(others, signs)
                }
            )

    def detectable(deviation: float) -> bool:
        if adversary == "corners":
            return _detectable_corners(
                circuit, parameter, nominal, element, deviation,
                corners, tolerance, scope,
            )
        return _detectable_budget(
            circuit, parameter, nominal, element, deviation,
            budget, tolerance, scope,
        )

    best = DeviationResult(parameter.name, element, UNTESTABLE, +1, budget)
    for direction in (+1, -1):
        # The deviation magnitude cannot exceed 100 % downward.
        ceiling = min(max_deviation, 0.999) if direction < 0 else max_deviation
        if not detectable(direction * ceiling):
            continue  # not even the ceiling is guaranteed detectable
        low, high = 0.0, ceiling
        while high - low > resolution:
            mid = 0.5 * (low + high)
            if detectable(direction * mid):
                high = mid
            else:
                low = mid
        if high < best.deviation:
            best = DeviationResult(
                parameter.name, element, high, direction, budget
            )
    return best


@dataclass
class DeviationMatrix:
    """The Example 1 / Table 3 artifact: E.D. per (parameter, element)."""

    parameters: list[str]
    elements: list[str]
    results: dict[tuple[str, str], DeviationResult]

    def deviation_percent(self, parameter: str, element: str) -> float:
        """E.D. in percent (the paper's unit); inf for untestable."""
        result = self.results[(parameter, element)]
        if math.isinf(result.deviation):
            return math.inf
        return 100.0 * result.deviation

    def element_coverage(self, element: str) -> tuple[str, float]:
        """Best (parameter, E.D.%) pair for an element.

        The paper's *element coverage*: the minimum deviation observable
        at at least one primary-output parameter.
        """
        best_param, best_ed = "", math.inf
        for parameter in self.parameters:
            ed = self.deviation_percent(parameter, element)
            if ed < best_ed:
                best_param, best_ed = parameter, ed
        return best_param, best_ed

    def row(self, parameter: str) -> list[float]:
        """E.D.% values of one parameter across all elements."""
        return [self.deviation_percent(parameter, e) for e in self.elements]

    def to_document(self) -> dict:
        """The E.D. matrix as JSON: ``{parameter: {element: cell}}``.

        A cell is the deviation and its direction.  Floats stay exact
        (``repr`` round trip); an UNTESTABLE deviation is the string
        ``"inf"`` (see :func:`json_float`).
        """
        return {
            "parameters": list(self.parameters),
            "elements": list(self.elements),
            "cells": {
                parameter: {
                    element: {
                        "deviation": json_float(result.deviation),
                        "direction": result.direction,
                    }
                    for element in self.elements
                    for result in (self.results[(parameter, element)],)
                }
                for parameter in self.parameters
            },
        }

    def to_cache_document(self) -> dict:
        """Exact JSON form holding every :class:`DeviationResult` field.

        Unlike :meth:`to_document` (the goldens' shape), this keeps the
        masking budget too, so :meth:`from_cache_document` restores an
        equal matrix.  Floats round-trip by ``repr``; ±inf goes through
        :func:`json_float`.
        """
        return {
            "parameters": list(self.parameters),
            "elements": list(self.elements),
            "results": [
                [
                    result.parameter,
                    result.element,
                    json_float(result.deviation),
                    result.direction,
                    json_float(result.masking_budget),
                ]
                for result in self.results.values()
            ],
        }

    @classmethod
    def from_cache_document(cls, document: dict) -> "DeviationMatrix":
        """Rebuild a matrix from :meth:`to_cache_document`."""
        results = {}
        for parameter, element, deviation, direction, budget in document[
            "results"
        ]:
            results[(parameter, element)] = DeviationResult(
                parameter, element, float(deviation), int(direction),
                float(budget),
            )
        return cls(
            list(document["parameters"]), list(document["elements"]), results
        )


def json_float(value: float) -> float | str:
    """A float as strict JSON: finite values as-is, ±inf/nan by ``repr``."""
    return value if math.isfinite(value) else repr(value)


def deviation_matrix(
    circuit: AnalogCircuit,
    parameters: Sequence[PerformanceParameter],
    elements: Sequence[str] | None = None,
    tolerance: float = 0.05,
    element_tolerance: float = 0.05,
    adversary: str = "sensitivity",
    max_deviation: float = 8.0,
    insensitive_threshold: float = 5e-3,
    sensitivities: SensitivityMatrix | None = None,
) -> DeviationMatrix:
    """Compute the full worst-case-deviation matrix.

    Pairs whose normalized sensitivity is below ``insensitive_threshold``
    are reported as UNTESTABLE without running the bisection — these are
    the structural zeros of the paper's Example 1 matrix (A1 does not
    depend on R1...R4, C1, C2 at all).

    An already-computed ``sensitivities`` matrix covering the requested
    parameters and elements can be passed to skip recomputing it.  Every
    measurement of the matrix runs on one
    :class:`~repro.spice.MeasurementScope`, which dies with the call.
    """
    if elements is None:
        elements = circuit.element_names()
    elements = list(elements)
    scope = MeasurementScope(circuit)
    if sensitivities is None:
        sensitivities = sensitivity_matrix(
            circuit, parameters, elements, scope=scope
        )
    results: dict[tuple[str, str], DeviationResult] = {}
    for parameter in parameters:
        for element in elements:
            if abs(sensitivities.of(parameter.name, element)) < insensitive_threshold:
                results[(parameter.name, element)] = DeviationResult(
                    parameter.name, element, UNTESTABLE, +1, 0.0
                )
                continue
            results[(parameter.name, element)] = worst_case_deviation(
                circuit,
                parameter,
                element,
                tolerance=tolerance,
                element_tolerance=element_tolerance,
                adversary=adversary,
                sensitivities=sensitivities,
                max_deviation=max_deviation,
                scope=scope,
            )
    return DeviationMatrix(
        [p.name for p in parameters], elements, results
    )
