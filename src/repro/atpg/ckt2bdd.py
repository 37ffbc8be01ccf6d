"""Compile gate-level netlists into BDDs.

This is the front half of BDD_FTEST ([10] in the paper): every line of the
digital circuit gets a BDD over the primary inputs, with the fan-in
variable-ordering heuristic keeping sizes tractable.  For fault insertion
the compiler re-derives the downstream cone of any line with an arbitrary
function spliced in at the fault site: a constant (the two cofactors the
Boolean difference needs) or a fresh *cut variable* ``w`` — the algebraic
analogue of the D-frontier.  :meth:`CircuitBdd.propagation` keeps each
fault site's Boolean differences on the compile, so every ATPG run over
the block shares them.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..bdd import BddManager, fanin_order
from ..bdd.manager import FALSE, TRUE
from ..digital.gates import GateType
from ..digital.netlist import Circuit

__all__ = ["CircuitBdd", "build_gate"]


#: A fault site: ``(line, None)`` for a stem, ``(line, (gate, pin))`` for
#: a fan-out branch — the arguments of the ``CircuitBdd`` cone methods.
Site = tuple[str, tuple[str, int] | None]


def build_gate(mgr: BddManager, gate_type: GateType, operands: Sequence[int]) -> int:
    """Combine operand BDDs according to the gate type."""
    if gate_type is GateType.BUF:
        return operands[0]
    if gate_type is GateType.NOT:
        return mgr.not_(operands[0])
    if gate_type is GateType.AND:
        return mgr.and_(*operands)
    if gate_type is GateType.NAND:
        return mgr.nand(*operands)
    if gate_type is GateType.OR:
        return mgr.or_(*operands)
    if gate_type is GateType.NOR:
        return mgr.nor(*operands)
    if gate_type is GateType.XOR:
        acc = operands[0]
        for op in operands[1:]:
            acc = mgr.xor(acc, op)
        return acc
    if gate_type is GateType.XNOR:
        acc = operands[0]
        for op in operands[1:-1]:
            acc = mgr.xor(acc, op)
        return mgr.xnor(acc, operands[-1])
    if gate_type is GateType.CONST0:
        return FALSE
    if gate_type is GateType.CONST1:
        return TRUE
    raise ValueError(f"cannot build BDD for gate type {gate_type}")


class CircuitBdd:
    """BDD view of a combinational circuit.

    On construction, every signal's function over the primary inputs is
    built once and cached, and the netlist's topological order and fan-out
    map are snapshotted, so fault cones are walked over the netlist *as
    compiled*.  :meth:`functions_with_line` then produces output functions
    with a chosen line replaced by any node, reusing the cached functions
    for everything outside the line's fan-out cone, and
    :meth:`propagation` memoizes each fault site's Boolean differences.

    The variables follow the fan-in order (:func:`repro.bdd.fanin_order`),
    the one order the paper's Table 4 vectors are defined under.

    Args:
        circuit: the netlist to compile.
        manager: optionally compile into an existing manager, whose
            variables keep their order; primary inputs it lacks are
            appended in fan-in order.  Any other order is reached this
            way: ``CircuitBdd(c, manager=BddManager(order))``.
    """

    def __init__(self, circuit: Circuit, manager: BddManager | None = None):
        circuit.validate()
        self.circuit = circuit
        self._topo = circuit.topological_order()
        self._position = {signal: i for i, signal in enumerate(self._topo)}
        self._fanout = circuit.fanout_map()
        self._outputs = frozenset(circuit.outputs)
        order = fanin_order(circuit.outputs, circuit.fanin_view(), circuit.inputs)
        if manager is None:
            manager = BddManager(order)
        else:
            for name in order:
                if not manager.has_variable(name):
                    manager.add_variable(name)
        self.mgr = manager
        self.functions: dict[str, int] = {}
        for name in circuit.inputs:
            self.functions[name] = self.mgr.var(name)
        for signal in self._topo:
            gate = circuit.gates[signal]
            operands = [self.functions[src] for src in gate.fanins]
            self.functions[signal] = build_gate(self.mgr, gate.gate_type, operands)
        # Per fault site: the union ``Σ_o ∂PO_o/∂l`` and the nonzero
        # per-output differences of the stem that closes its
        # sole-successor chain (see propagation).
        self._sites: dict[Site, tuple[int, dict[str, int]]] = {}
        #: wall-clock seconds spent building :meth:`propagation`'s memo.
        self.propagation_seconds = 0.0

    # ------------------------------------------------------------------
    def output_functions(self) -> dict[str, int]:
        """BDD of every primary output over the primary inputs."""
        return {out: self.functions[out] for out in self.circuit.outputs}

    def line_function(self, line: str) -> int:
        """Good-circuit function of an arbitrary line."""
        return self.functions[line]

    def fanout_cone(self, line: str) -> set[str]:
        """Signals in the transitive fan-out of ``line`` (excluding it)."""
        fanout = self._fanout
        cone: set[str] = set()
        stack = [line]
        while stack:
            signal = stack.pop()
            for gate, _pin in fanout.get(signal, ()):
                if gate not in cone:
                    cone.add(gate)
                    stack.append(gate)
        return cone

    def sole_successor(
        self, line: str, pin_site: tuple[str, int] | None = None
    ) -> tuple[str, int] | None:
        """The one gate input pin every path from the fault site runs through.

        A fan-out branch ``pin_site`` is its own sole successor; a stem
        has one when it is not a primary output and feeds exactly one
        gate input pin.  ``None`` otherwise: the site is a fan-out stem,
        a primary output or dangling.
        """
        if pin_site is not None:
            return pin_site
        pins = self._fanout.get(line, ())
        if len(pins) == 1 and line not in self._outputs:
            return pins[0]
        return None

    def local_difference(self, gate_name: str, pin: int) -> int:
        """``g|pin=0 ⊕ g|pin=1`` over the gate's good fan-in functions.

        Where it is 1, flipping input ``pin`` flips the output of
        ``gate_name``: the local factor of the chain rule
        ``∂PO/∂l = ∂g/∂l · ∂PO/∂g`` for a site whose sole successor is
        ``(gate_name, pin)``.
        """
        gate = self.circuit.gates[gate_name]
        operands = [self.functions[src] for src in gate.fanins]
        operands[pin] = FALSE
        low = build_gate(self.mgr, gate.gate_type, operands)
        operands[pin] = TRUE
        high = build_gate(self.mgr, gate.gate_type, operands)
        return self.mgr.xor(low, high)

    def propagation(
        self, line: str, pin_site: tuple[str, int] | None = None
    ) -> tuple[int, dict[str, int]]:
        """``(Σ_o ∂PO_o/∂l, {o: ∂PO_o/∂stem ≠ 0})`` for one fault site.

        Propagation is polarity- and constraint-independent, so it is
        built once per site and compile and shared by every ATPG run on
        the block.  A site whose sole successor is ``(g, p)`` gets
        ``∂g/∂l · Σ_o ∂PO_o/∂g`` from ``g``'s stem; the chain is walked
        down to the first site already known or a fan-out stem, which
        rebuilds its cone.  Every site on the chain shares that stem's
        per-output differences: on a vector where the chain's local
        factors are all 1 — any test vector of the site — they are the
        site's own.
        """
        site = (line, pin_site)
        cache = self._sites
        known = cache.get(site)
        if known is not None:
            return known
        start = time.perf_counter()
        chain: list[tuple[Site, tuple[str, int]]] = []
        current = site
        while current not in cache:
            successor = self.sole_successor(*current)
            if successor is None:
                cache[current] = self._stem_propagation(current[0])
                break
            chain.append((current, successor))
            current = (successor[0], None)
        union, differences = cache[current]
        for link, (gate, pin) in reversed(chain):
            union = self.mgr.and_(self.local_difference(gate, pin), union)
            cache[link] = (union, differences)
        self.propagation_seconds += time.perf_counter() - start
        return cache[site]

    def _stem_propagation(self, line: str) -> tuple[int, dict[str, int]]:
        """Rebuild the stem's fan-out cone with each constant spliced in."""
        mgr = self.mgr
        low = self.functions_with_line(line, None, FALSE)
        high = self.functions_with_line(line, None, TRUE)
        differences: dict[str, int] = {}
        for out, f0 in low.items():
            f1 = high[out]
            # Outside the site's cone both cofactors are the good function.
            if f0 != f1:
                differences[out] = mgr.xor(f0, f1)
        # OR is associative and commutative and the result canonical:
        # smallest first only keeps the intermediate sums small.
        union = mgr.or_(*sorted(differences.values(), key=mgr.size))
        return union, differences

    def cut_variable(self, line: str, pin_site: tuple[str, int] | None = None) -> int:
        """The cut variable for a fault site (created on first use, last in order)."""
        key = ("cut", line, pin_site)
        if not self.mgr.has_variable(key):
            return self.mgr.add_variable(key)
        return self.mgr.var(key)

    def functions_with_line(
        self, line: str, pin_site: tuple[str, int] | None, node: int
    ) -> dict[str, int]:
        """Output functions with the fault site replaced by ``node``.

        ``pin_site`` of ``(gate, pin)`` replaces only that branch (a
        fan-out branch fault); ``None`` replaces the stem.  Only the
        site's fan-out cone is rebuilt, in topological order; every other
        signal keeps its cached good function.  Returns a map from each
        primary output to its BDD.
        """
        functions = self.functions
        gates = self.circuit.gates
        mgr = self.mgr
        if pin_site is None:
            local = {line: node}
            cone = self.fanout_cone(line)
        else:
            gate_name, pin = pin_site
            gate = gates[gate_name]
            operands = [functions[src] for src in gate.fanins]
            operands[pin] = node
            local = {gate_name: build_gate(mgr, gate.gate_type, operands)}
            cone = self.fanout_cone(gate_name)
        for signal in sorted(cone, key=self._position.__getitem__):
            gate = gates[signal]
            operands = [
                local[src] if src in local else functions[src]
                for src in gate.fanins
            ]
            local[signal] = build_gate(mgr, gate.gate_type, operands)
        return {
            out: local[out] if out in local else functions[out]
            for out in self.circuit.outputs
        }

    def functions_with_cut(
        self, line: str, pin_site: tuple[str, int] | None = None
    ) -> tuple[int, dict[str, int]]:
        """Output functions with the fault site replaced by a cut variable.

        Returns ``(w, outputs)`` where ``w`` is the cut variable node and
        ``outputs`` maps each primary output to its BDD over PIs ∪ {w}
        (see :meth:`functions_with_line` for ``pin_site``).

        The cut variable is appended at the *end* of the variable order —
        the same choice the paper makes for the composite value ``D``
        ("D is supposed to be a primary input which is last in the BDD
        ordering") — so the shared top structure of the output BDDs is
        untouched.
        """
        w = self.cut_variable(line, pin_site)
        return w, self.functions_with_line(line, pin_site, w)

    def substituted_outputs(self, substitutions: dict[str, int]) -> dict[str, int]:
        """Output functions with some primary inputs replaced by BDDs.

        Used by the composite-value (analog fault) flow: the converter-
        driven inputs are pinned to constants, ``D`` or ``D̄`` and the
        whole circuit is re-evaluated symbolically in one pass.
        """
        values: dict[str, int] = {}
        for name in self.circuit.inputs:
            values[name] = substitutions.get(name, self.mgr.var(name))
        for signal in self._topo:
            gate = self.circuit.gates[signal]
            operands = [values[src] for src in gate.fanins]
            values[signal] = build_gate(self.mgr, gate.gate_type, operands)
        return {out: values[out] for out in self.circuit.outputs}

    def total_nodes(self) -> int:
        """Size of the manager — the ordering-ablation metric."""
        return len(self.mgr)
