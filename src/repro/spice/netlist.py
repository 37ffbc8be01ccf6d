"""Analog netlist container with live element values and deviations.

The analog test method works by *deviating* one element at a time (and
setting the fault-free ones to their tolerance corners) and re-measuring
performance parameters, so the netlist separates each element's *nominal*
value from a multiplicative *deviation*:

    effective = nominal · (1 + deviation)

Deviations are held in the circuit, not the component objects, so the same
immutable component set serves every analysis point.
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
    _deviations: dict[str, float] = field(default_factory=dict, repr=False)

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
        """Nominal × (1 + deviation), under ``state`` when given (a full
        deviation state, e.g. from :meth:`deviation_state`) or else under
        the circuit's own deviations."""
        deviations = self._deviations if state is None else state
        return self.nominal_value(name) * (1.0 + deviations.get(name, 0.0))

    def set_deviation(self, name: str, deviation: float) -> None:
        """Set the relative deviation of one element (0.05 = +5 %)."""
        self._deviations = self.deviation_state({name: deviation})

    def deviations(self) -> dict[str, float]:
        """Currently applied deviations (copy)."""
        return dict(self._deviations)

    def deviation_state(
        self, overrides: dict[str, float] | None = None
    ) -> dict[str, float]:
        """The deviations ``with_deviations(overrides)`` would apply.

        The circuit's own deviations with ``overrides`` laid over them,
        validated (unknown element, deviation ≤ −100 %) — but returned
        as a new dict instead of written to the circuit, so measurements
        can take a deviation state as an argument and stay thread-safe.
        """
        state = dict(self._deviations)
        for name, deviation in (overrides or {}).items():
            self.component(name)  # validate existence
            if deviation <= -1.0:
                raise AnalogError(
                    f"deviation {deviation} would make {name!r} non-positive"
                )
            if deviation == 0.0:
                state.pop(name, None)
            else:
                state[name] = deviation
        return state

    def clear_deviations(self) -> None:
        """Reset every element to nominal."""
        self._deviations.clear()

    def with_deviations(self, deviations: dict[str, float]) -> "_DeviationScope":
        """Context manager applying deviations temporarily::

            with circuit.with_deviations({"R1": 0.10}):
                gain = dc_gain(circuit, "vin", "vout")
        """
        return _DeviationScope(self, deviations)

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


class _DeviationScope:
    """Context manager behind :meth:`AnalogCircuit.with_deviations`."""

    def __init__(self, circuit: AnalogCircuit, deviations: dict[str, float]):
        self._circuit = circuit
        self._incoming = dict(deviations)
        self._saved: dict[str, float] = {}

    def __enter__(self) -> AnalogCircuit:
        try:
            for name, deviation in self._incoming.items():
                previous = self._circuit._deviations.get(name, 0.0)
                self._circuit.set_deviation(name, deviation)
                # Recorded only after success: a failed application must
                # not be "restored" (the name may not even exist).
                self._saved[name] = previous
        except BaseException:
            # __exit__ never runs when __enter__ raises, so the already-
            # applied part must be rolled back here.
            self.__exit__()
            raise
        return self._circuit

    def __exit__(self, *exc_info) -> None:
        for name, previous in self._saved.items():
            self._circuit.set_deviation(name, previous)
