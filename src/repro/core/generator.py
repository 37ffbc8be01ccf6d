"""The mixed-signal test generator — the paper's automated procedure.

Section 2.3 closes with the automation recipe this class implements:

    "To obtain a test vector for an element of an analog circuit ...
    for each element, the parameter that is the most sensitive to a
    deviation in the element is taken.  Using Table 1, we find an analog
    signal that will activate the fault ... when all the cases that
    allow to have D or D̄ at one of the primary outputs of the
    conversion block have been tried, and the fault cannot be propagated
    through the digital block ... we look for another parameter from the
    parameter set.  When all the parameters of the element have been
    studied without success, any deviation in this element cannot be
    seen at any primary output of the mixed circuit."

Plus the companion analysis, per-comparator composite-value
observability (Table 5).  The whole flow, with the conversion-block
coverage and the digital block's constrained ATPG run (Table 4), is
:class:`repro.api.Pipeline`.
"""

from __future__ import annotations

import math

import numpy as np

from ..analog import (
    AnalogFault,
    DeviationMatrix,
    SensitivityMatrix,
    parametric,
    sensitivity_matrix,
    worst_case_deviation,
)
from ..api.config import GeneratorConfig
from ..atpg import CompositeValue, propagate_composite
from ..spice import MeasurementScope
from .activation import activate
from .coverage import AnalogElementTest, AnalogTestStatus
from .mixed_circuit import MixedSignalCircuit
from .stimulus import Bound, choose_stimulus

__all__ = ["MixedSignalTestGenerator"]

#: injected fault = E.D. × this factor, so activation clears the
#: guaranteed-detectable threshold with margin.
_FAULT_MARGIN = 1.25

#: failure statuses from the earliest to the furthest stage reached; an
#: untestable element reports the furthest any of its parameters got.
_FAILURE_DEPTH = (
    AnalogTestStatus.UNTESTABLE_MEASUREMENT,
    AnalogTestStatus.UNTESTABLE_ACTIVATION,
    AnalogTestStatus.UNTESTABLE_PROPAGATION,
)


class MixedSignalTestGenerator:
    """End-to-end test generation for a :class:`MixedSignalCircuit`.

    Args:
        mixed: the circuit under test.
        matrix: optional precomputed worst-case deviation matrix; when
            given, parameters are tried per element in ascending-E.D.
            order (tightest measurement first — the paper's "the
            parameter that is the most sensitive ... is taken") and the
            E.D. values are reused rather than recomputed.  This is what
            makes case 2 test elements with *the same accuracy* as
            case 1 (Table 3's claim).
        config: typed configuration (:class:`repro.api.GeneratorConfig`):
            the parameter tolerance box and fault-free element tolerance
            (paper: 5 % each), and the comparator budget — how many
            comparators to try per (parameter, bound) before giving up,
            "all the possibilities" in the paper.
    """

    def __init__(
        self,
        mixed: MixedSignalCircuit,
        matrix: DeviationMatrix | None = None,
        config: GeneratorConfig | None = None,
    ):
        config = config if config is not None else GeneratorConfig()
        self.mixed = mixed
        self.config = config
        self.tolerance = config.tolerance
        self.element_tolerance = config.element_tolerance
        self.comparator_budget = (
            config.comparator_budget
            if config.comparator_budget is not None
            else mixed.adc.n_comparators
        )
        self.matrix = matrix
        self._sensitivities: SensitivityMatrix | None = None

    # ------------------------------------------------------------------
    @property
    def sensitivities(self) -> SensitivityMatrix:
        """Lazy full sensitivity matrix of the analog block."""
        if self._sensitivities is None:
            self._sensitivities = sensitivity_matrix(
                self.mixed.analog, self.mixed.parameters
            )
        return self._sensitivities

    def _parameters_by_sensitivity(self, element: str):
        """Parameters ordered best-first for the element.

        With a precomputed deviation matrix: ascending E.D. (tightest
        measurement first).  Otherwise: decreasing |S|.
        """
        if self.matrix is not None:
            by_name = {p.name: p for p in self.mixed.parameters}
            ordered = sorted(
                self.matrix.parameters,
                key=lambda name: self.matrix.deviation_percent(name, element),
            )
            return [by_name[name] for name in ordered if name in by_name]
        matrix = self.sensitivities
        column = matrix.elements.index(element)
        order = np.argsort(-np.abs(matrix.values[:, column]))
        return [matrix.parameters[i] for i in order]

    # ------------------------------------------------------------------
    def analog_element_test(
        self, element: str, scope: MeasurementScope | None = None
    ) -> AnalogElementTest:
        """Generate the full recipe for one analog element.

        ``scope`` shares measurements with the caller's other elements
        (see :meth:`analog_tests`).
        """
        if scope is None:
            scope = MeasurementScope(self.mixed.analog)
        cbdd = self.mixed.compiled_digital()
        best_failure = AnalogTestStatus.UNTESTABLE_MEASUREMENT
        for parameter in self._parameters_by_sensitivity(element):
            if self.matrix is not None:
                result = self.matrix.results[(parameter.name, element)]
            else:
                if abs(self.sensitivities.of(parameter.name, element)) < 5e-3:
                    continue  # structurally independent: next parameter
                result = worst_case_deviation(
                    self.mixed.analog,
                    parameter,
                    element,
                    tolerance=self.tolerance,
                    element_tolerance=self.element_tolerance,
                    sensitivities=self.sensitivities,
                    scope=scope,
                )
            if math.isinf(result.deviation):
                continue
            injected = result.direction * result.deviation * _FAULT_MARGIN
            # A downward fault cannot exceed -100 %; cap just short of it
            # (a 95 % drop is far outside any tolerance box anyway).
            injected = max(injected, -0.95)
            fault = parametric(element, injected)
            recipe = self._activate_and_propagate(
                parameter, fault, cbdd, result.deviation, scope
            )
            if recipe.status is AnalogTestStatus.TESTABLE:
                return recipe
            best_failure = max(
                best_failure, recipe.status, key=_FAILURE_DEPTH.index
            )
        return AnalogElementTest(element, best_failure)

    def _activate_and_propagate(
        self, parameter, fault: AnalogFault, cbdd, ed: float,
        scope: MeasurementScope,
    ) -> AnalogElementTest:
        """Try every (bound, comparator) case for one parameter.

        Without a test, the recipe carries how far the parameter got:
        ``UNTESTABLE_PROPAGATION`` when some case flipped a comparator,
        else ``UNTESTABLE_ACTIVATION``.
        """
        n = self.mixed.adc.n_comparators
        # Try middle comparators first: their thresholds sit in the
        # response's dynamic range most often.
        order = sorted(range(n), key=lambda i: abs(i - n // 2))
        activation_seen = False
        for bound in (Bound.LOWER, Bound.UPPER):
            for comparator_index in order[: self.comparator_budget]:
                vref = self.mixed.adc.threshold(comparator_index)
                try:
                    choice = choose_stimulus(
                        self.mixed.analog, parameter, bound, vref,
                        x=self.tolerance, scope=scope,
                    )
                except (ValueError, ArithmeticError):
                    continue
                result = activate(self.mixed, fault, choice)
                if not result.activated:
                    continue
                activation_seen = True
                propagation = propagate_composite(cbdd, result.pinned)
                if propagation.vector is None:
                    continue
                return AnalogElementTest(
                    element=fault.element,
                    status=AnalogTestStatus.TESTABLE,
                    parameter=parameter.name,
                    ed_percent=100.0 * ed,
                    bound=bound,
                    comparator_index=comparator_index,
                    stimulus=choice.stimulus,
                    vector=propagation.vector,
                    observing_output=propagation.observing_output,
                )
        status = (
            AnalogTestStatus.UNTESTABLE_PROPAGATION
            if activation_seen
            else AnalogTestStatus.UNTESTABLE_ACTIVATION
        )
        return AnalogElementTest(fault.element, status)

    def analog_tests(self) -> list[AnalogElementTest]:
        """Test recipes for every analog element (the analog-only flow).

        All elements measure on one scope, so the nominal peak and gains
        behind every stimulus choice are measured once.
        """
        scope = MeasurementScope(self.mixed.analog)
        return [
            self.analog_element_test(element, scope)
            for element in self.mixed.analog.element_names()
        ]

    # ------------------------------------------------------------------
    def comparator_observability(
        self, composite: CompositeValue = CompositeValue.D
    ) -> list[bool]:
        """Can a composite value on comparator *i* reach a primary output?

        The Table 5 question.  Comparator *i* is given ``composite``
        (``D``: the fault drops its output; ``D̄``: the fault raises it);
        the other converter lines take the thermometer-consistent
        constants (ones below, zeros above).
        """
        cbdd = self.mixed.compiled_digital()
        lines = self.mixed.converter_lines
        observable: list[bool] = []
        for index in range(len(lines)):
            pinned: dict[str, CompositeValue] = {}
            for j, line in enumerate(lines):
                if j < index:
                    pinned[line] = CompositeValue.ONE
                elif j == index:
                    pinned[line] = composite
                else:
                    pinned[line] = CompositeValue.ZERO
            propagation = propagate_composite(cbdd, pinned)
            observable.append(propagation.vector is not None)
        return observable
