"""Combinational netlist representation.

A :class:`Circuit` is a DAG of named signals.  Primary inputs are signals
with no driver; every other signal is driven by exactly one gate.  The
class validates structure eagerly (unknown fan-ins, double drivers,
combinational cycles) so downstream passes can assume a well-formed DAG.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .gates import GATE_ARITY, GateType

__all__ = ["Gate", "Circuit", "NetlistError"]


class NetlistError(Exception):
    """Raised for malformed netlists (cycles, missing drivers, ...)."""


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = type(fanins...)``."""

    output: str
    gate_type: GateType
    fanins: tuple[str, ...]

    def __post_init__(self) -> None:
        low, high = GATE_ARITY[self.gate_type]
        n = len(self.fanins)
        if n < low or (high is not None and n > high):
            raise NetlistError(
                f"gate {self.output}: {self.gate_type.value} cannot take "
                f"{n} fan-ins"
            )


@dataclass
class Circuit:
    """A named combinational circuit.

    Attributes:
        name: circuit identifier (e.g. ``"c432"``; used in reports).
        inputs: primary input signal names, in declaration order.
        outputs: primary output signal names (must be driven signals or
            inputs).
        gates: mapping from output signal name to its :class:`Gate`.
    """

    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input; returns the signal name for chaining."""
        if name in self.gates or name in self.inputs:
            raise NetlistError(f"signal {name!r} already exists")
        self.inputs.append(name)
        return name

    def add_gate(
        self, output: str, gate_type: GateType | str, fanins: Sequence[str]
    ) -> str:
        """Add a gate driving ``output``; returns the signal name."""
        if isinstance(gate_type, str):
            gate_type = GateType(gate_type.upper())
        if output in self.gates or output in self.inputs:
            raise NetlistError(f"signal {output!r} already driven")
        self.gates[output] = Gate(output, gate_type, tuple(fanins))
        return output

    def add_output(self, name: str) -> str:
        """Mark an existing signal as a primary output."""
        self.outputs.append(name)
        return name

    # Convenience single-gate helpers --------------------------------------
    def and_(self, output: str, *fanins: str) -> str:
        """Add an AND gate."""
        return self.add_gate(output, GateType.AND, fanins)

    def or_(self, output: str, *fanins: str) -> str:
        """Add an OR gate."""
        return self.add_gate(output, GateType.OR, fanins)

    def nand(self, output: str, *fanins: str) -> str:
        """Add a NAND gate."""
        return self.add_gate(output, GateType.NAND, fanins)

    def nor(self, output: str, *fanins: str) -> str:
        """Add a NOR gate."""
        return self.add_gate(output, GateType.NOR, fanins)

    def xor(self, output: str, *fanins: str) -> str:
        """Add an XOR gate."""
        return self.add_gate(output, GateType.XOR, fanins)

    def xnor(self, output: str, *fanins: str) -> str:
        """Add an XNOR gate."""
        return self.add_gate(output, GateType.XNOR, fanins)

    def not_(self, output: str, fanin: str) -> str:
        """Add an inverter."""
        return self.add_gate(output, GateType.NOT, (fanin,))

    def buf(self, output: str, fanin: str) -> str:
        """Add a buffer."""
        return self.add_gate(output, GateType.BUF, (fanin,))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def signals(self) -> list[str]:
        """All signal names: inputs first, then gate outputs in topo order."""
        return list(self.inputs) + self.topological_order()

    def is_input(self, name: str) -> bool:
        """True if ``name`` is a primary input."""
        return name in self._input_set()

    def _input_set(self) -> set[str]:
        return set(self.inputs)

    def fanout_map(self) -> dict[str, list[tuple[str, int]]]:
        """Map each signal to the ``(gate_output, pin_index)`` pairs it feeds."""
        fanout: dict[str, list[tuple[str, int]]] = {
            s: [] for s in self.inputs
        }
        for gate in self.gates.values():
            fanout.setdefault(gate.output, [])
            for pin, src in enumerate(gate.fanins):
                fanout.setdefault(src, []).append((gate.output, pin))
        return fanout

    def fanin_view(self) -> dict[str, tuple[str, ...]]:
        """Map each driven signal to its fan-in tuple (for ordering heuristics)."""
        return {g.output: g.fanins for g in self.gates.values()}

    def topological_order(self) -> list[str]:
        """Gate outputs in dependency order; raises on cycles/missing drivers.

        Memoized on the netlist's content — the inputs and the
        :class:`Gate` objects, in order — so any edit recomputes it,
        including one that keeps the gate count.
        """
        key = (tuple(self.inputs), tuple(self.gates.values()))
        if getattr(self, "_topo_key", None) != key:
            self._topo = self._compute_topo()
            self._topo_key = key
        return list(self._topo)

    def _compute_topo(self) -> list[str]:
        input_set = self._input_set()
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        order: list[str] = []

        for root in list(self.gates):
            if state.get(root) == 1:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            while stack:
                signal, child_index = stack.pop()
                if signal in input_set:
                    continue
                gate = self.gates.get(signal)
                if gate is None:
                    raise NetlistError(f"signal {signal!r} has no driver")
                if child_index == 0:
                    if state.get(signal) == 1:
                        continue
                    if state.get(signal) == 0:
                        raise NetlistError(
                            f"combinational cycle through {signal!r}"
                        )
                    state[signal] = 0
                if child_index < len(gate.fanins):
                    stack.append((signal, child_index + 1))
                    child = gate.fanins[child_index]
                    if child not in input_set and state.get(child) != 1:
                        if state.get(child) == 0:
                            raise NetlistError(
                                f"combinational cycle through {child!r}"
                            )
                        stack.append((child, 0))
                else:
                    state[signal] = 1
                    order.append(signal)
        return order

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetlistError` if broken."""
        topo = self.topological_order()
        known = self._input_set() | set(topo)
        for gate in self.gates.values():
            for src in gate.fanins:
                if src not in known:
                    raise NetlistError(
                        f"gate {gate.output!r} reads undefined signal {src!r}"
                    )
        for out in self.outputs:
            if out not in known:
                raise NetlistError(f"output {out!r} is not a known signal")

    def stats(self) -> dict[str, int]:
        """Summary counters used by the experiment tables."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "lines": len(self.inputs) + len(self.gates),
        }

    # ------------------------------------------------------------------
    # Functional evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Single-pattern logic evaluation; returns values for all signals."""
        from .simulate import simulate  # local import to avoid a cycle

        return simulate(self, assignment)

    def copy(self, name: str | None = None) -> "Circuit":
        """Structural copy (gates are immutable and shared)."""
        dup = Circuit(name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.gates = dict(self.gates)
        return dup

    def renamed(self, prefix: str) -> "Circuit":
        """Copy with every signal name prefixed — for stitching circuits."""
        dup = Circuit(self.name)
        dup.inputs = [prefix + s for s in self.inputs]
        dup.outputs = [prefix + s for s in self.outputs]
        dup.gates = {
            prefix + g.output: Gate(
                prefix + g.output,
                g.gate_type,
                tuple(prefix + s for s in g.fanins),
            )
            for g in self.gates.values()
        }
        return dup
