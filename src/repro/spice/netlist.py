"""Analog netlist container with live element values.

The analog test method works by *deviating* one element at a time (and
setting the fault-free ones to their tolerance corners) and re-measuring
performance parameters, so the netlist separates each element's *nominal*
value from a multiplicative *deviation*:

    effective = nominal · (1 + deviation)

A deviation state (element → relative deviation) is always an argument
of the analysis that uses it, never held by the circuit, so one circuit
serves every analysis point — from many threads at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .components import (
    Capacitor,
    Component,
    CurrentSource,
    FiniteOpAmp,
    IdealOpAmp,
    Inductor,
    Resistor,
    VCVS,
    VoltageSource,
)

__all__ = ["AnalogCircuit", "AnalogError"]

GROUND = "0"


class AnalogError(Exception):
    """Raised for malformed analog netlists or solver failures."""


@dataclass
class AnalogCircuit:
    """A named analog network.

    Attributes:
        name: identifier used in reports.
        components: devices in insertion order.
    """

    name: str
    components: list[Component] = field(default_factory=list)
    _by_name: dict[str, Component] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Add a device; names must be unique within the circuit."""
        if component.name in self._by_name:
            raise AnalogError(f"duplicate component name {component.name!r}")
        self.components.append(component)
        self._by_name[component.name] = component
        return component

    def resistor(self, name: str, n1: str, n2: str, ohms: float) -> Resistor:
        """Add a resistor."""
        return self.add(Resistor(name, n1, n2, ohms))  # type: ignore[return-value]

    def capacitor(self, name: str, n1: str, n2: str, farads: float) -> Capacitor:
        """Add a capacitor."""
        return self.add(Capacitor(name, n1, n2, farads))  # type: ignore[return-value]

    def inductor(self, name: str, n1: str, n2: str, henries: float) -> Inductor:
        """Add an inductor."""
        return self.add(Inductor(name, n1, n2, henries))  # type: ignore[return-value]

    def vsource(
        self, name: str, plus: str, minus: str, dc: float = 0.0, ac: float = 0.0
    ) -> VoltageSource:
        """Add an independent voltage source."""
        return self.add(VoltageSource(name, plus, minus, dc, ac))  # type: ignore[return-value]

    def isource(
        self, name: str, plus: str, minus: str, dc: float = 0.0, ac: float = 0.0
    ) -> CurrentSource:
        """Add an independent current source."""
        return self.add(CurrentSource(name, plus, minus, dc, ac))  # type: ignore[return-value]

    def opamp(self, name: str, in_plus: str, in_minus: str, out: str) -> IdealOpAmp:
        """Add an ideal (nullor) op-amp."""
        return self.add(IdealOpAmp(name, in_plus, in_minus, out))  # type: ignore[return-value]

    def finite_opamp(
        self,
        name: str,
        in_plus: str,
        in_minus: str,
        out: str,
        gain: float = 2.0e5,
        gbw: float = 1.0e6,
    ) -> FiniteOpAmp:
        """Add a single-pole op-amp macromodel (fault-injectable)."""
        return self.add(
            FiniteOpAmp(name, in_plus, in_minus, out, gain, gbw)
        )  # type: ignore[return-value]

    def vcvs(
        self,
        name: str,
        out_plus: str,
        out_minus: str,
        ctrl_plus: str,
        ctrl_minus: str,
        gain: float,
    ) -> VCVS:
        """Add a voltage-controlled voltage source."""
        return self.add(
            VCVS(name, out_plus, out_minus, ctrl_plus, ctrl_minus, gain)
        )  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Values and deviations
    # ------------------------------------------------------------------
    def component(self, name: str) -> Component:
        """Look up a device by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise AnalogError(f"no component named {name!r}") from None

    def element_names(self) -> list[str]:
        """Names of the value-carrying elements (R, C, L, gains)."""
        return [c.name for c in self.components if c.has_value]

    def nominal_value(self, name: str) -> float:
        """The element's design value."""
        component = self.component(name)
        if not component.has_value:
            raise AnalogError(f"component {name!r} carries no value")
        return component.value  # type: ignore[attr-defined]

    def effective_value(
        self, name: str, state: dict[str, float] | None = None
    ) -> float:
        """Nominal × (1 + deviation) under ``state`` (a validated
        deviation state from :meth:`deviation_state`; None = nominal)."""
        deviation = state.get(name, 0.0) if state else 0.0
        return self.nominal_value(name) * (1.0 + deviation)

    def deviation_state(
        self, deviations: dict[str, float] | None = None
    ) -> dict[str, float]:
        """``deviations`` validated (unknown element, deviation ≤ −100 %)
        and returned as a new dict without its zero entries — the form
        every analysis takes a deviation state in.
        """
        state: dict[str, float] = {}
        for name, deviation in (deviations or {}).items():
            self.component(name)  # validate existence
            if deviation <= -1.0:
                raise AnalogError(
                    f"deviation {deviation} would make {name!r} non-positive"
                )
            if deviation != 0.0:
                state[name] = deviation
        return state

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """All node names (ground excluded), in first-appearance order."""
        seen: list[str] = []
        seen_set = {GROUND}
        for component in self.components:
            for attr in (
                "n1",
                "n2",
                "plus",
                "minus",
                "in_plus",
                "in_minus",
                "out",
                "out_plus",
                "out_minus",
                "ctrl_plus",
                "ctrl_minus",
            ):
                node = getattr(component, attr, None)
                if node is not None and node not in seen_set:
                    seen_set.add(node)
                    seen.append(node)
        return seen

    def sources(self) -> list[Component]:
        """Independent sources, in insertion order."""
        return [
            c
            for c in self.components
            if isinstance(c, (VoltageSource, CurrentSource))
        ]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)
