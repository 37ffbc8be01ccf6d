"""Incremental sensitivity analysis.

Normalized sensitivities  S(T, x) = (∂T/T) / (∂x/x)  computed by central
finite differences on the MNA response.  They drive two things in the
reproduction: the adversarial corner choice of the worst-case deviation
solver and the "most sensitive parameter first" ordering of the mixed
test generator (section 2.3's automation procedure).

A matrix measures every parameter at the nominal state and at ±step per
element; it runs all of them on one
:class:`~repro.spice.MeasurementScope`, so the circuit is compiled once
and each state's peak search is shared by the parameters that need it,
and runs every entry's measurements in lockstep
(:func:`~repro.spice.lockstep`), so each refiner step of all entries is
one stacked solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..spice import AnalogCircuit, MeasurementScope, lockstep
from .parameters import PerformanceParameter

__all__ = [
    "sensitivity",
    "sensitivity_steps",
    "SensitivityMatrix",
    "sensitivity_matrix",
]


def sensitivity(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    element: str,
    rel_step: float = 0.01,
    nominal: float | None = None,
    scope: MeasurementScope | None = None,
) -> float:
    """Normalized sensitivity of ``parameter`` to ``element``.

    Central difference at ±``rel_step`` relative deviation; ``nominal``
    (the parameter value at the nominal state) may be passed to save one
    measurement when the caller already has it, and ``scope`` to share
    the caller's measurements.
    """
    if scope is None:
        scope = MeasurementScope(circuit)
    program = sensitivity_steps(
        circuit, parameter, element, rel_step, nominal, scope=scope
    )
    return lockstep([program])[0]


def sensitivity_steps(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    element: str,
    rel_step: float = 0.01,
    nominal: float | None = None,
    *,
    scope: MeasurementScope,
):
    """:func:`sensitivity` as a measurement program (see
    :func:`~repro.spice.lockstep`)."""
    if nominal is None:
        nominal = yield from parameter.measure_steps(circuit, scope=scope)
    if nominal == 0:
        return 0.0
    upper = yield from parameter.measure_steps(
        circuit, {element: rel_step}, scope=scope
    )
    lower = yield from parameter.measure_steps(
        circuit, {element: -rel_step}, scope=scope
    )
    return (upper - lower) / (2.0 * rel_step * nominal)


@dataclass
class SensitivityMatrix:
    """Dense |parameters| × |elements| normalized-sensitivity table."""

    parameters: list[PerformanceParameter]
    elements: list[str]
    values: np.ndarray  # shape (n_parameters, n_elements)

    def of(self, parameter_name: str, element: str) -> float:
        """Look up one entry by names."""
        row = next(
            i for i, p in enumerate(self.parameters) if p.name == parameter_name
        )
        col = self.elements.index(element)
        return float(self.values[row, col])

    def most_sensitive_parameter(self, element: str) -> PerformanceParameter:
        """The parameter with the largest |S| for ``element``.

        This is the paper's starting choice when generating a test for an
        analog element ("the parameter that is the most sensitive to a
        deviation in the element is taken").
        """
        col = self.elements.index(element)
        row = int(np.argmax(np.abs(self.values[:, col])))
        return self.parameters[row]

    def dependent_elements(
        self, parameter_name: str, threshold: float = 1e-3
    ) -> list[str]:
        """Elements the parameter meaningfully depends on."""
        row = next(
            i for i, p in enumerate(self.parameters) if p.name == parameter_name
        )
        return [
            element
            for j, element in enumerate(self.elements)
            if abs(self.values[row, j]) > threshold
        ]


def sensitivity_matrix(
    circuit: AnalogCircuit,
    parameters: Sequence[PerformanceParameter],
    elements: Sequence[str] | None = None,
    rel_step: float = 0.01,
    scope: MeasurementScope | None = None,
) -> SensitivityMatrix:
    """Compute the full normalized-sensitivity matrix.

    ``scope`` shares the caller's measurements (a deviation matrix
    passes its own); without one the matrix measures on a scope of its
    own.
    """
    if elements is None:
        elements = circuit.element_names()
    elements = list(elements)
    if scope is None:
        scope = MeasurementScope(circuit)
    # One program per parameter's nominal, then one per element; each
    # element's program reads the nominal its parameter's program keeps.
    programs = []
    for parameter in parameters:
        programs.append(parameter.measure_steps(circuit, scope=scope))
        programs.extend(
            sensitivity_steps(circuit, parameter, element, rel_step, scope=scope)
            for element in elements
        )
    measured = lockstep(programs)
    values = np.zeros((len(parameters), len(elements)))
    for i in range(len(parameters)):
        start = i * (len(elements) + 1) + 1
        values[i, :] = measured[start:start + len(elements)]
    return SensitivityMatrix(list(parameters), elements, values)
