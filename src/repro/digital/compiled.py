"""Compiled, cone-limited parallel-pattern fault simulation.

The reference interpreter in :mod:`repro.digital.simulate` re-walks the
whole circuit once per fault and re-derives the topological order and
per-gate fan-in lists through dict lookups on every call.  This module
is the fast path behind the same public signatures:

* **Levelization** — a :class:`CompiledCircuit` flattens a
  :class:`repro.digital.Circuit` once into integer-indexed arrays
  (inputs first, then gate outputs in topological order), so simulation
  is index arithmetic over flat lists instead of name-keyed dict walks.
  Each consumer builds its own table from the netlist's content (a
  fraction of a millisecond on the ISCAS-85 blocks), so an edited
  circuit never serves a stale one.

* **Multi-word pattern batches** — signal values are numpy ``uint64``
  word vectors: bit *i* of word *w* is the value under pattern
  ``64·w + i``, so one pass simulates ``64 × n_words`` patterns
  (:data:`DEFAULT_WORD_SIZE` = 256).  :func:`pack_patterns` vectorizes
  the pattern→word packing through ``np.packbits`` instead of per-bit
  Python shifts.

* **Cone-limited faulty simulation** — a fault can only disturb gates
  inside the transitive fan-out cone of its site.  The faulty pass
  seeds from the good-circuit values, walks only the (precomputed,
  cached) cone in topological order, and is *event driven*: a cone gate
  whose fan-ins all still carry good values is skipped, and a gate
  whose recomputed word equals the good word re-converges and raises no
  further events.  Detection is a per-pattern XOR word at the outputs —
  bit-identical to the reference interpreter, which the differential
  suite enforces.

* **Single-pass compaction** — instead of re-running the fault
  simulator once per vector (the reference ``compact_vectors``), one
  forward pass records a per-fault *detection bitmap* (bit *i* set when
  vector *i* detects the fault); reverse-order compaction is then pure
  bitmap arithmetic and provably keeps the reference's exact vector
  list.

Engines report :class:`FaultSimDiagnostics` (batches, cone sizes, event
skips, fault drops).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .faults import Fault
from .gates import GateType
from .netlist import Circuit
from .simulate import DEFAULT_WORD_SIZE

__all__ = [
    "DEFAULT_WORD_SIZE",
    "FaultSimDiagnostics",
    "CompiledCircuit",
    "CompiledFaultSimulator",
    "pack_patterns",
]

# Compact opcodes (indices into the dispatch below); INPUT never appears
# in the gate array because inputs carry no driver.
_BUF, _NOT, _AND, _NAND, _OR, _NOR, _XOR, _XNOR, _CONST0, _CONST1 = range(10)

_OPCODES: dict[GateType, int] = {
    GateType.BUF: _BUF,
    GateType.NOT: _NOT,
    GateType.AND: _AND,
    GateType.NAND: _NAND,
    GateType.OR: _OR,
    GateType.NOR: _NOR,
    GateType.XOR: _XOR,
    GateType.XNOR: _XNOR,
    GateType.CONST0: _CONST0,
    GateType.CONST1: _CONST1,
}

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass
class FaultSimDiagnostics:
    """What actually ran: batches, cone sizes, event activity.

    Surfaced through :attr:`repro.atpg.AtpgRun.diagnostics` and the
    benchmark scripts.
    """

    engine: str
    circuit: str
    n_gates: int
    n_faults: int
    n_patterns: int
    word_size: int
    n_batches: int = 0
    #: fault × batch pairs skipped because the fault was already
    #: detected in an earlier batch (fault dropping).
    fault_batch_drops: int = 0
    #: cone gates actually re-evaluated in faulty passes.
    gates_evaluated: int = 0
    #: cone gates visited but skipped because no fan-in carried an event.
    event_skips: int = 0
    #: summed cone sizes over all simulated (fault, batch) pairs.
    cone_gates_total: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict form (for artifact/report metadata)."""
        return {
            "engine": self.engine,
            "circuit": self.circuit,
            "n_gates": self.n_gates,
            "n_faults": self.n_faults,
            "n_patterns": self.n_patterns,
            "word_size": self.word_size,
            "n_batches": self.n_batches,
            "fault_batch_drops": self.fault_batch_drops,
            "gates_evaluated": self.gates_evaluated,
            "event_skips": self.event_skips,
            "cone_gates_total": self.cone_gates_total,
            "elapsed_s": round(self.elapsed_s, 6),
        }


def pack_patterns(
    inputs: Sequence[str], patterns: Sequence[Mapping[str, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Pack input patterns into ``uint64`` word vectors.

    Returns ``(words, mask)``: ``words[i, w]`` holds bit *b* = the value
    of ``inputs[i]`` under pattern ``64·w + b``; ``mask`` has one bit
    per active pattern (the final word may be partial).  The bit
    transpose runs through ``np.packbits`` — no per-bit Python shifts.
    """
    n = len(patterns)
    n_words = max(1, -(-n // 64))
    mask = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    tail = n % 64
    if n == 0:
        mask[:] = np.uint64(0)
    elif tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    if not inputs or n == 0:
        return np.zeros((len(inputs), n_words), dtype=np.uint64), mask
    bits = np.array(
        [[pattern.get(name, 0) & 1 for name in inputs] for pattern in patterns],
        dtype=np.uint8,
    )
    padded = n_words * 64
    if padded != n:
        bits = np.vstack(
            [bits, np.zeros((padded - n, len(inputs)), dtype=np.uint8)]
        )
    packed = np.packbits(bits, axis=0, bitorder="little")  # (padded/8, #in)
    words = np.ascontiguousarray(packed.T).view(np.uint64)
    return words, mask


def _words_to_int(words: np.ndarray) -> int:
    """A word vector as one arbitrary-width Python integer bitmap."""
    return int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")


def _eval_words(op: int, vals: list, mask: np.ndarray):
    """Evaluate one gate over word vectors (allocating variant)."""
    if op == _AND or op == _NAND:
        acc = vals[0] & vals[1]
        for v in vals[2:]:
            acc = acc & v
        return acc ^ mask if op == _NAND else acc
    if op == _OR or op == _NOR:
        acc = vals[0] | vals[1]
        for v in vals[2:]:
            acc = acc | v
        return acc ^ mask if op == _NOR else acc
    if op == _XOR or op == _XNOR:
        acc = vals[0] ^ vals[1]
        for v in vals[2:]:
            acc = acc ^ v
        return acc ^ mask if op == _XNOR else acc
    if op == _BUF:
        return vals[0].copy()
    if op == _NOT:
        return vals[0] ^ mask
    if op == _CONST0:
        return np.zeros_like(mask)
    return mask.copy()  # CONST1


class CompiledCircuit:
    """A :class:`Circuit` levelized once into flat index arrays.

    Signals are indexed primary inputs first, then gate outputs in
    topological order — so ascending index order *is* dependency order
    and a sorted cone is already schedulable.  Built from the netlist's
    content at construction and never refreshed: build a new one after
    editing the circuit.
    """

    def __init__(self, circuit: Circuit):
        # Interface snapshot: the circuit may be edited later, so the
        # compiled form keeps no reference to it.
        self.name = circuit.name
        self.inputs: list[str] = list(circuit.inputs)
        order = circuit.topological_order()
        self.names: list[str] = list(circuit.inputs) + order
        self.index: dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        self.n_inputs = len(circuit.inputs)
        self.n_signals = len(self.names)
        self.opcodes: list[int] = []
        self.fanins: list[tuple[int, ...]] = []
        for name in order:
            gate = circuit.gates[name]
            self.opcodes.append(_OPCODES[gate.gate_type])
            self.fanins.append(tuple(self.index[s] for s in gate.fanins))
        self.output_index: tuple[int, ...] = tuple(
            self.index[o] for o in circuit.outputs
        )
        self._output_set = frozenset(self.output_index)
        # Fan-out adjacency: signal index -> gate signal indices reading
        # it (each reader once, even across multiple pins).
        readers: list[list[int]] = [[] for _ in range(self.n_signals)]
        for position, fanin in enumerate(self.fanins):
            gate_index = self.n_inputs + position
            for source in dict.fromkeys(fanin):
                readers[source].append(gate_index)
        self.readers: list[tuple[int, ...]] = [tuple(r) for r in readers]
        self._cones: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Fan-out cones
    # ------------------------------------------------------------------
    def cone(self, signal_index: int) -> tuple[int, ...]:
        """Gate signal indices in the transitive fan-out of a signal.

        Ascending (= topological) order; the driving gate of the signal
        itself is *not* included.  Cached per line.
        """
        cached = self._cones.get(signal_index)
        if cached is not None:
            return cached
        seen: set[int] = set()
        stack = [signal_index]
        while stack:
            signal = stack.pop()
            for reader in self.readers[signal]:
                if reader not in seen:
                    seen.add(reader)
                    stack.append(reader)
        result = tuple(sorted(seen))
        self._cones[signal_index] = result
        return result

    def fault_site(self, fault: Fault) -> tuple[int, int, tuple[int, ...]] | None:
        """Resolve a fault to ``(site_or_gate, pin, cone)``.

        For a stem fault: ``(line_index, -1, cone(line))``.  For a
        branch fault: ``(gate_index, pin, (gate,) + cone(gate))``.
        ``None`` when the fault touches nothing in this circuit (the
        reference interpreter then simulates an unchanged circuit, i.e.
        detects nothing) — callers short-circuit to "undetected".
        """
        if fault.is_stem:
            site = self.index.get(fault.line)
            if site is None:
                return None
            return site, -1, self.cone(site)
        gate_index = self.index.get(fault.gate)
        if gate_index is None or gate_index < self.n_inputs:
            return None
        if fault.pin is None or not (
            0 <= fault.pin < len(self.fanins[gate_index - self.n_inputs])
        ):
            return None
        return gate_index, fault.pin, (gate_index,) + self.cone(gate_index)

    # ------------------------------------------------------------------
    # Good-circuit simulation
    # ------------------------------------------------------------------
    def simulate_words(
        self, input_words: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Good-circuit values for every signal, as a word matrix.

        ``input_words`` is ``(n_inputs, n_words)`` (see
        :func:`pack_patterns`); the result is ``(n_signals, n_words)``.
        """
        n_words = mask.shape[0]
        values = np.zeros((self.n_signals, n_words), dtype=np.uint64)
        if self.n_inputs:
            np.bitwise_and(input_words, mask, out=values[: self.n_inputs])
        base = self.n_inputs
        for position, (op, fanin) in enumerate(zip(self.opcodes, self.fanins)):
            row = values[base + position]
            if op == _AND or op == _NAND:
                np.bitwise_and(values[fanin[0]], values[fanin[1]], out=row)
                for source in fanin[2:]:
                    np.bitwise_and(row, values[source], out=row)
                if op == _NAND:
                    np.bitwise_xor(row, mask, out=row)
            elif op == _OR or op == _NOR:
                np.bitwise_or(values[fanin[0]], values[fanin[1]], out=row)
                for source in fanin[2:]:
                    np.bitwise_or(row, values[source], out=row)
                if op == _NOR:
                    np.bitwise_xor(row, mask, out=row)
            elif op == _XOR or op == _XNOR:
                np.bitwise_xor(values[fanin[0]], values[fanin[1]], out=row)
                for source in fanin[2:]:
                    np.bitwise_xor(row, values[source], out=row)
                if op == _XNOR:
                    np.bitwise_xor(row, mask, out=row)
            elif op == _NOT:
                np.bitwise_xor(values[fanin[0]], mask, out=row)
            elif op == _BUF:
                row[:] = values[fanin[0]]
            elif op == _CONST1:
                row[:] = mask
            # CONST0 rows stay zero.
        return values

    # ------------------------------------------------------------------
    # Cone-limited faulty simulation
    # ------------------------------------------------------------------
    def fault_detection(
        self,
        fault: Fault,
        values: np.ndarray,
        mask: np.ndarray,
        first_only: bool = False,
    ) -> tuple[np.ndarray | None, int, int, int]:
        """Detection words for one fault against good values.

        Seeds from the good-value matrix, re-evaluates only the fault's
        fan-out cone, skips cone gates with no faulty fan-in (event
        driven) and, with ``first_only``, returns as soon as any primary
        output diverges (enough for a boolean detection verdict).

        Returns ``(detection, evaluated, skipped, cone_size)`` where
        ``detection`` is the per-pattern output-difference word vector
        (``None`` when the fault provably cannot be detected by these
        patterns).
        """
        site = self.fault_site(fault)
        if site is None:
            return None, 0, 0, 0
        anchor, pin, cone = site
        forced = mask if fault.stuck_value else np.zeros_like(mask)
        changed: dict[int, np.ndarray] = {}
        if pin < 0:
            # Stem fault: the line itself is forced.  No activation on
            # any pattern means the faulty circuit is the good circuit.
            if not (values[anchor] ^ forced).any():
                return None, 0, 0, len(cone)
            changed[anchor] = forced
        base = self.n_inputs
        evaluated = skipped = 0
        detection: np.ndarray | None = None
        for gate_index in cone:
            position = gate_index - base
            fanin = self.fanins[position]
            if gate_index == anchor and pin >= 0:
                # The faulted branch pin sees the forced word; the other
                # pins (and the stem elsewhere) see their true values.
                vals = [
                    forced if k == pin else changed.get(s, values[s])
                    for k, s in enumerate(fanin)
                ]
            else:
                hit = False
                vals = []
                for source in fanin:
                    word = changed.get(source)
                    if word is None:
                        vals.append(values[source])
                    else:
                        vals.append(word)
                        hit = True
                if not hit:
                    skipped += 1
                    continue  # event-driven skip: every fan-in is good
            word = _eval_words(self.opcodes[position], vals, mask)
            evaluated += 1
            if not np.array_equal(word, values[gate_index]):
                changed[gate_index] = word
                if first_only and gate_index in self._output_set:
                    return word ^ values[gate_index], evaluated, skipped, len(cone)
        for output in self.output_index:
            word = changed.get(output)
            if word is None:
                continue
            diff = word ^ values[output]
            detection = diff if detection is None else detection | diff
        return detection, evaluated, skipped, len(cone)

    # ------------------------------------------------------------------
    # Single-pattern evaluation (campaign digital-response hot path)
    # ------------------------------------------------------------------
    def evaluate_outputs(self, assignment: Mapping[str, int]) -> tuple[int, ...]:
        """Primary-output bits for one input assignment.

        The flat-array replacement for per-call
        :func:`repro.digital.simulate.simulate` in response-per-code
        loops (fault-injection campaigns): no topological re-walk, no
        per-signal dict building.
        """
        values = [0] * self.n_signals
        for i in range(self.n_inputs):
            values[i] = assignment[self.names[i]] & 1
        base = self.n_inputs
        for position, (op, fanin) in enumerate(zip(self.opcodes, self.fanins)):
            if op == _AND or op == _NAND:
                acc = 1
                for source in fanin:
                    acc &= values[source]
                values[base + position] = acc ^ 1 if op == _NAND else acc
            elif op == _OR or op == _NOR:
                acc = 0
                for source in fanin:
                    acc |= values[source]
                values[base + position] = acc ^ 1 if op == _NOR else acc
            elif op == _XOR or op == _XNOR:
                acc = 0
                for source in fanin:
                    acc ^= values[source]
                values[base + position] = acc ^ 1 if op == _XNOR else acc
            elif op == _NOT:
                values[base + position] = values[fanin[0]] ^ 1
            elif op == _BUF:
                values[base + position] = values[fanin[0]]
            elif op == _CONST1:
                values[base + position] = 1
            # CONST0 entries stay zero.
        return tuple(values[o] for o in self.output_index)


class CompiledFaultSimulator:
    """The compiled engine behind ``fault_simulate``/``compact_vectors``.

    Mirrors the engine objects of :mod:`repro.analog.faultsim`: stateless
    between calls except for :attr:`last_diagnostics`, which describes
    the most recent run.
    """

    name = "compiled"

    def __init__(
        self, circuit: Circuit, word_size: int = DEFAULT_WORD_SIZE
    ) -> None:
        if word_size < 1:
            raise ValueError(f"word_size must be >= 1, got {word_size!r}")
        self.compiled = CompiledCircuit(circuit)
        self.word_size = word_size
        self.last_diagnostics: FaultSimDiagnostics | None = None

    # ------------------------------------------------------------------
    def _diagnostics(self, n_faults: int, n_patterns: int) -> FaultSimDiagnostics:
        return FaultSimDiagnostics(
            engine=self.name,
            circuit=self.compiled.name,
            n_gates=len(self.compiled.opcodes),
            n_faults=n_faults,
            n_patterns=n_patterns,
            word_size=self.word_size,
        )

    def _batches(self, patterns: Sequence[Mapping[str, int]]):
        """Yield ``(start, good_values, mask)`` per pattern batch."""
        inputs = self.compiled.inputs
        for start in range(0, len(patterns), self.word_size):
            chunk = patterns[start : start + self.word_size]
            words, mask = pack_patterns(inputs, chunk)
            yield start, self.compiled.simulate_words(words, mask), mask

    # ------------------------------------------------------------------
    def fault_simulate(
        self,
        patterns: Sequence[Mapping[str, int]],
        faults: Iterable[Fault],
    ) -> dict[Fault, bool]:
        """Detection flag per fault; drops detected faults across batches."""
        start_time = time.perf_counter()
        faults = list(faults)
        detected: dict[Fault, bool] = {f: False for f in faults}
        diag = self._diagnostics(len(faults), len(patterns))
        for start, values, mask in self._batches(patterns):
            diag.n_batches += 1
            remaining = [f for f in faults if not detected[f]]
            diag.fault_batch_drops += len(faults) - len(remaining)
            if not remaining:
                break
            for fault in remaining:
                words, evaluated, skipped, cone = self.compiled.fault_detection(
                    fault, values, mask, first_only=True
                )
                diag.gates_evaluated += evaluated
                diag.event_skips += skipped
                diag.cone_gates_total += cone
                if words is not None and words.any():
                    detected[fault] = True
        diag.elapsed_s = time.perf_counter() - start_time
        self.last_diagnostics = diag
        return detected

    def detection_bitmaps(
        self,
        patterns: Sequence[Mapping[str, int]],
        faults: Iterable[Fault],
    ) -> dict[Fault, int]:
        """Per-fault bitmap: bit *i* set when pattern *i* detects it.

        One forward pass, no fault dropping — this is the data single-pass
        compaction consumes.
        """
        start_time = time.perf_counter()
        faults = list(faults)
        bitmaps: dict[Fault, int] = {f: 0 for f in faults}
        diag = self._diagnostics(len(faults), len(patterns))
        for start, values, mask in self._batches(patterns):
            diag.n_batches += 1
            for fault in faults:
                words, evaluated, skipped, cone = self.compiled.fault_detection(
                    fault, values, mask
                )
                diag.gates_evaluated += evaluated
                diag.event_skips += skipped
                diag.cone_gates_total += cone
                if words is not None:
                    bitmap = _words_to_int(words)
                    if bitmap:
                        bitmaps[fault] |= bitmap << start
        diag.elapsed_s = time.perf_counter() - start_time
        self.last_diagnostics = diag
        return bitmaps

    def compact(
        self,
        vectors: Sequence[Mapping[str, int]],
        faults: Iterable[Fault],
    ) -> list[Mapping[str, int]]:
        """Reverse-order compaction from one detection-bitmap pass.

        Provably identical to the reference ``compact_vectors`` walk: the
        kept set is decided by exactly the same per-vector detection
        facts, read from the bitmaps instead of re-simulating.
        """
        vectors = list(vectors)
        bitmaps = self.detection_bitmaps(vectors, faults)
        remaining = {f: b for f, b in bitmaps.items() if b}
        kept: list[Mapping[str, int]] = []
        for index in range(len(vectors) - 1, -1, -1):
            if not remaining:
                break
            bit = 1 << index
            hits = [f for f, bitmap in remaining.items() if bitmap & bit]
            if hits:
                kept.append(vectors[index])
                for fault in hits:
                    del remaining[fault]
        kept.reverse()
        return kept
