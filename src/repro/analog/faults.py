"""Analog fault models: parametric (soft) and catastrophic.

The paper (after [9]) splits analog faults into *catastrophic* — opens and
shorts, "sudden and large variations in components" — and *parametric* —
deviations beyond the element's specification tolerance.  Both map onto
element-value deviations in the MNA model, so a single injection mechanism
serves the whole flow — the fault's ``{element: value_deviation}`` state,
passed as the ``deviations`` argument of the measurement that observes it
(the circuit itself is never written):

* a parametric fault is a relative deviation (e.g. ``+0.25``),
* an open resistor multiplies R by 10^6, a shorted one divides it,
* capacitors dualize (open capacitor → value / 10^6: it disappears).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..spice import AnalogCircuit, Capacitor, Resistor

__all__ = [
    "AnalogFaultKind",
    "AnalogFault",
    "parametric",
    "open_fault",
    "short_fault",
    "catastrophic_faults",
]

#: Value multiplier used for catastrophic faults (10^6 ≈ ideal open/short
#: while keeping the MNA matrix comfortably conditioned).
_CATASTROPHIC_FACTOR = 1.0e6


class AnalogFaultKind(str, Enum):
    """Fault taxonomy of section 2.1."""

    PARAMETRIC = "parametric"
    OPEN = "open"
    SHORT = "short"


@dataclass(frozen=True)
class AnalogFault:
    """One analog fault: an element plus how it deviates."""

    element: str
    kind: AnalogFaultKind
    #: relative deviation for PARAMETRIC faults (+0.25 = +25 %).
    deviation: float = 0.0

    def value_deviation(self, circuit: AnalogCircuit) -> float:
        """The multiplicative deviation to apply to the element value."""
        if self.kind is AnalogFaultKind.PARAMETRIC:
            return self.deviation
        component = circuit.component(self.element)
        if self.kind is AnalogFaultKind.OPEN:
            grows = isinstance(component, Resistor)
        else:  # SHORT
            grows = isinstance(component, Capacitor)
        if grows:
            return _CATASTROPHIC_FACTOR - 1.0
        return 1.0 / _CATASTROPHIC_FACTOR - 1.0

    def __str__(self) -> str:
        if self.kind is AnalogFaultKind.PARAMETRIC:
            return f"{self.element} {self.deviation:+.1%}"
        return f"{self.element} {self.kind.value}"


def parametric(element: str, deviation: float) -> AnalogFault:
    """A soft fault: the element deviates by ``deviation`` (relative)."""
    return AnalogFault(element, AnalogFaultKind.PARAMETRIC, deviation)


def open_fault(element: str) -> AnalogFault:
    """A catastrophic open on ``element``."""
    return AnalogFault(element, AnalogFaultKind.OPEN)


def short_fault(element: str) -> AnalogFault:
    """A catastrophic short on ``element``."""
    return AnalogFault(element, AnalogFaultKind.SHORT)


def catastrophic_faults(circuit: AnalogCircuit) -> list[AnalogFault]:
    """Both catastrophic faults for every R and C in the circuit."""
    faults: list[AnalogFault] = []
    for name in circuit.element_names():
        component = circuit.component(name)
        if isinstance(component, (Resistor, Capacitor)):
            faults.append(open_fault(name))
            faults.append(short_fault(name))
    return faults
