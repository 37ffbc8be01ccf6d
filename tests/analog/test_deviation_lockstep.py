"""Differential test: the lockstep deviation matrix against a serial oracle.

:func:`~repro.analog.deviation_matrix` runs every (parameter, element)
search of the matrix in lockstep.  The oracle below is the plain serial
bisection the paper's E.D. definition reads as: one search after
another, one :meth:`PerformanceParameter.measure` per step.  The two
must agree cell for cell — deviation, direction and masking budget, bit
for bit — on every dense registry analog circuit with the
``"sensitivity"`` and ``"none"`` adversaries, and on this directory's
small circuits with ``"corners"``.  The sensitivity matrix behind the
budgets runs in lockstep too, and must equal its entries measured one
by one.
"""

import itertools
import math

import numpy as np
import pytest

from repro.analog import (
    DeviationResult,
    ParameterKind,
    PerformanceParameter,
    SensitivityMatrix,
    deviation_matrix,
    sensitivity,
    sensitivity_matrix,
    standard_filter_parameters,
)
from repro.api.registry import default_registry
from repro.circuits import (
    bandpass_parameters,
    chebyshev_parameters,
    state_variable_parameters,
)
from repro.circuits.ladders import LADDER_OUTPUT, LADDER_SOURCE
from repro.spice import AnalogError, MeasurementScope, resolve_backend

from .test_deviation import ADC, inverting_amp


def serial_deviation(circuit, parameter, element, adversary, matrix, scope):
    """One search, serially: the E.D. of ``element`` via ``parameter``."""
    others = [e for e in circuit.element_names() if e != element]
    nominal = parameter.measure(circuit, scope=scope)

    def shift(state):
        try:
            value = parameter.measure(circuit, state, scope=scope)
        except AnalogError:
            return None
        return (value - nominal) / abs(nominal)

    budget = 0.0
    for other in others if adversary == "sensitivity" else ():
        if other in matrix.elements:
            s = matrix.of(parameter.name, other)
        else:
            s = sensitivity(circuit, parameter, other, 0.01, nominal, scope)
        budget += abs(s) * 0.05

    def detectable(deviation):
        if adversary != "corners":
            s = shift({element: deviation})
            return s is None or abs(s) > 0.05 + budget
        signs = set()
        for corner in itertools.product((-0.05, 0.05), repeat=len(others)):
            s = shift({**dict(zip(others, corner)), element: deviation})
            if s is None:
                continue
            signs.add(s > 0)
            if abs(s) <= 0.05 or len(signs) == 2:
                return False
        return bool(signs)

    best = DeviationResult(parameter.name, element, math.inf, +1, budget)
    for direction, ceiling in ((+1, 8.0), (-1, 0.999)):
        if not detectable(direction * ceiling):
            continue
        low, high = 0.0, ceiling
        while high - low > 1e-3:
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


def serial_matrix(circuit, parameters, adversary, elements=None):
    """The whole matrix, serially, sensitivities included."""
    elements = list(elements or circuit.element_names())
    scope = MeasurementScope(circuit)
    values = [
        [sensitivity(circuit, p, e, scope=scope) for e in elements]
        for p in parameters
    ]
    matrix = SensitivityMatrix(list(parameters), elements, np.array(values))
    return {
        (p.name, e): (
            DeviationResult(p.name, e, math.inf, +1, 0.0)
            if abs(matrix.of(p.name, e)) < 5e-3
            else serial_deviation(circuit, p, e, adversary, matrix, scope)
        )
        for p in parameters
        for e in elements
    }


def _ladder_parameters():
    """DC and AC gain: the cut-off's peak scans of a 65-node system at
    every budget state would make this the slowest test by far."""
    return standard_filter_parameters(
        LADDER_SOURCE, LADDER_OUTPUT, band_pass=False
    )[:2]


#: parameters of each registry analog circuit; the ladders search a few
#: elements (the budget then fills in the others' sensitivities).
PARAMETERS = {
    "bandpass": (bandpass_parameters, None),
    "chebyshev": (chebyshev_parameters, None),
    "state-variable": (state_variable_parameters, None),
    "rc-ladder-64": (_ladder_parameters, ["R1", "C32", "R64"]),
    "r2r-mesh-64": (_ladder_parameters, ["R1", "RG32", "C64"]),
}

REGISTRY = default_registry()
DENSE = [
    name
    for name in REGISTRY.names("analog")
    if resolve_backend(
        "auto", n_nodes=len(REGISTRY.build(name).nodes())
    ).name == "dense"
]


def test_every_dense_circuit_has_parameters():
    assert sorted(DENSE) == sorted(PARAMETERS)


@pytest.mark.parametrize("adversary", ["sensitivity", "none"])
@pytest.mark.parametrize("name", DENSE)
def test_registry_circuit(name, adversary):
    circuit = REGISTRY.build(name)
    parameters, elements = PARAMETERS[name]
    parameters = parameters()
    matrix = deviation_matrix(
        circuit, parameters, elements, adversary=adversary
    )
    expected = serial_matrix(circuit, parameters, adversary, elements)
    assert list(matrix.results) == list(expected)
    assert matrix.results == expected
    # some cell was searched, not skipped as structurally insensitive
    assert any(
        math.isfinite(r.deviation) or r.masking_budget
        for r in expected.values()
    )


@pytest.mark.parametrize("name", DENSE)
def test_sensitivity_matrix(name):
    circuit = REGISTRY.build(name)
    parameters, elements = PARAMETERS[name]
    parameters = parameters()
    elements = elements or circuit.element_names()
    scope = MeasurementScope(circuit)
    serial = [
        [sensitivity(circuit, p, e, scope=scope) for e in elements]
        for p in parameters
    ]
    matrix = sensitivity_matrix(circuit, parameters, elements)
    assert matrix.values.tolist() == serial


def _with_shunt():
    circuit = inverting_amp()
    circuit.resistor("Rshunt", "out", "0", 1e6)
    return circuit


AAC = PerformanceParameter(
    "Aac", ParameterKind.AC_GAIN, "Vin", "out", frequency_hz=1e3
)


@pytest.mark.parametrize("build", [inverting_amp, _with_shunt])
def test_small_circuits_with_corners(build):
    circuit = build()
    parameters = [ADC, AAC]
    matrix = deviation_matrix(circuit, parameters, adversary="corners")
    assert matrix.results == serial_matrix(circuit, parameters, "corners")


def test_the_first_cell_error_escapes():
    # A parameter that is zero at nominal raises in its first searched
    # cell, as the serial loop raises it.
    circuit = inverting_amp()
    zero = PerformanceParameter("Az", ParameterKind.DC_GAIN, "Vin", "0")
    sensitivities = sensitivity_matrix(circuit, [ADC, zero])
    sensitivities.values[1, :] = 1.0  # searched although insensitive
    with pytest.raises(AnalogError, match="Az is zero at nominal"):
        deviation_matrix(circuit, [ADC, zero], sensitivities=sensitivities)
