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
The state is an argument of the measurement: the circuit is never
mutated.  Each (parameter, element, direction) bisection is a
measurement program (:func:`_search`: the nominal, the masking budget,
then the bisection; the corner test yields corner by corner), and a
deviation matrix runs all of its bisections in lockstep
(:func:`~repro.spice.lockstep`) on one
:class:`~repro.spice.MeasurementScope`.  Each round derives the states
the searches ask for next from the one compiled model as stamp deltas,
runs each new state's peak scan as one stacked solve, and then answers
every refiner step of every state in flight (and every fixed-frequency
gain) with one stacked solve over the per-state matrices.  A state two
searches share is measured once, and each distinct state's peak search
is shared by every parameter that needs it (see
:mod:`repro.spice.measure`).  The searches do not depend on each other,
so the matrix equals running them one after another, cell for cell; an
error escapes from the cell it would escape from then.
:func:`worst_case_deviation` is the case of one cell's two directions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..spice import AnalogCircuit, AnalogError, MeasurementScope, lockstep
from .parameters import PerformanceParameter
from .sensitivity import (
    SensitivityMatrix,
    sensitivity_matrix,
    sensitivity_steps,
)

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

#: default bisection tolerance on the deviation (0.1 %).
_RESOLUTION = 1e-3


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
):
    """Program: ``(T(state) − T_nom)/T_nom``; None when T is unmeasurable
    (gross).

    An invalid state (unknown element, deviation ≤ −100 %) raises; only
    a failed measurement means "unmeasurable".
    """
    state = circuit.deviation_state(state)
    try:
        value = yield from parameter.measure_steps(circuit, state, scope=scope)
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
):
    """Program, first-order test: fault effect must exceed box + masking
    budget."""
    shift = yield from _relative_shift(
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
):
    """Program, exact-corner test with interior-masking detection: one
    corner measured per step, stopping at the first that masks."""
    saw_positive = saw_negative = False
    for corner in corners:
        state = dict(corner)
        state[element] = deviation
        shift = yield from _relative_shift(
            circuit, parameter, nominal, state, scope
        )
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


def _search(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    element: str,
    direction: int,
    tolerance: float,
    element_tolerance: float,
    adversary: str,
    sensitivities: SensitivityMatrix | None,
    max_deviation: float,
    resolution: float,
    scope: MeasurementScope,
):
    """Program of one (parameter, element, direction) bisection; returns
    its :class:`DeviationResult`, UNTESTABLE when not even the search
    ceiling is guaranteed detectable (see :func:`worst_case_deviation`).
    """
    if adversary not in _ADVERSARIES:
        raise ValueError(f"adversary must be one of {_ADVERSARIES}")
    others = [e for e in circuit.element_names() if e != element]
    nominal = yield from parameter.measure_steps(circuit, scope=scope)
    if nominal == 0:
        raise AnalogError(
            f"parameter {parameter.name} is zero at nominal; cannot form "
            "a relative tolerance box"
        )

    budget = 0.0
    if adversary == "sensitivity":
        for other in others:
            if sensitivities is not None and other in sensitivities.elements:
                s = sensitivities.of(parameter.name, other)
            else:
                # No matrix, or one computed over a subset: measure the
                # missing fault-free elements on the fly.
                s = yield from sensitivity_steps(
                    circuit, parameter, other, nominal=nominal, scope=scope
                )
            budget += abs(s) * element_tolerance

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

    def detectable(deviation: float):
        if adversary == "corners":
            return _detectable_corners(
                circuit, parameter, nominal, element, deviation,
                corners, tolerance, scope,
            )
        return _detectable_budget(
            circuit, parameter, nominal, element, deviation,
            budget, tolerance, scope,
        )

    # The deviation magnitude cannot exceed 100 % downward.
    ceiling = min(max_deviation, 0.999) if direction < 0 else max_deviation
    if not (yield from detectable(direction * ceiling)):
        return DeviationResult(
            parameter.name, element, UNTESTABLE, direction, budget
        )
    low, high = 0.0, ceiling
    while high - low > resolution:
        mid = 0.5 * (low + high)
        if (yield from detectable(direction * mid)):
            high = mid
        else:
            low = mid
    return DeviationResult(parameter.name, element, high, direction, budget)


def _best(plus: DeviationResult, minus: DeviationResult) -> DeviationResult:
    """The smaller of the two directions' deviations; ``+1`` on a tie
    (so an untestable pair reports ``+1``)."""
    return minus if minus.deviation < plus.deviation else plus


def worst_case_deviation(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    element: str,
    tolerance: float = 0.05,
    element_tolerance: float = 0.05,
    adversary: str = "sensitivity",
    sensitivities: SensitivityMatrix | None = None,
    max_deviation: float = 8.0,
    resolution: float = _RESOLUTION,
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
    if scope is None:
        scope = MeasurementScope(circuit)
    plus, minus = lockstep(
        _search(
            circuit, parameter, element, direction, tolerance,
            element_tolerance, adversary, sensitivities, max_deviation,
            resolution, scope,
        )
        for direction in (+1, -1)
    )
    return _best(plus, minus)


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
    :class:`~repro.spice.MeasurementScope`, which dies with the call, and
    every search runs in lockstep with the others (see the module
    docstring); the result equals searching the cells one by one.
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
    searched = []
    for parameter in parameters:
        for element in elements:
            if abs(sensitivities.of(parameter.name, element)) < insensitive_threshold:
                results[(parameter.name, element)] = DeviationResult(
                    parameter.name, element, UNTESTABLE, +1, 0.0
                )
            else:
                results[(parameter.name, element)] = None  # keeps cell order
                searched.append((parameter, element))
    found = iter(
        lockstep(
            _search(
                circuit, parameter, element, direction, tolerance,
                element_tolerance, adversary, sensitivities, max_deviation,
                _RESOLUTION, scope,
            )
            for parameter, element in searched
            for direction in (+1, -1)
        )
    )
    for plus, minus in zip(found, found):
        results[(plus.parameter, plus.element)] = _best(plus, minus)
    return DeviationMatrix(
        [p.name for p in parameters], elements, results
    )
