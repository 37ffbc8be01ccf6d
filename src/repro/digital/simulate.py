"""Logic simulation and single-stuck-at fault simulation.

Simulation operates on *parallel pattern words*: each signal value is a
Python integer whose bit *i* is the logic value under input pattern *i*.
This gives 64-and-beyond-way pattern parallelism for free and is the
workhorse behind fault-coverage measurement and test-set compaction
(the ``#vect`` column of the paper's Table 4).

Two engines sit behind ``fault_simulate``/``compact_vectors``/
``coverage``:

* ``"compiled"`` (the default) — the levelized, cone-limited,
  multi-word engine of :mod:`repro.digital.compiled`: a fault only
  re-evaluates gates inside its fan-out cone, batches are numpy
  ``uint64`` word vectors (>64 patterns per pass), and compaction reads
  a per-vector detection bitmap recorded in a single forward pass.
* ``"reference"`` — the original whole-circuit interpreter below, kept
  as the oracle the differential suite checks the compiled engine
  against (mirroring the analog engine split of
  :mod:`repro.analog.faultsim`).

Both produce identical detection maps and identical compacted vector
lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .faults import Fault
from .gates import GateType, evaluate_gate
from .netlist import Circuit

__all__ = [
    "DIGITAL_ENGINES",
    "DEFAULT_WORD_SIZE",
    "simulate",
    "simulate_patterns",
    "simulate_with_fault",
    "fault_simulate",
    "compact_vectors",
    "coverage",
]

#: fault-simulation engines behind the digital hot path: ``"compiled"``
#: is the levelized cone-limited fast path, ``"reference"`` the
#: whole-circuit oracle interpreter the differential tests compare it to.
DIGITAL_ENGINES = ("compiled", "reference")

#: patterns per simulation pass — multiple 64-bit words for the
#: compiled engine, one arbitrary-width Python word for the reference.
DEFAULT_WORD_SIZE = 256


def _check_engine(engine: str) -> None:
    if engine not in DIGITAL_ENGINES:
        raise ValueError(
            f"unknown digital fault-simulation engine {engine!r}; "
            f"known: {', '.join(DIGITAL_ENGINES)}"
        )


def simulate(circuit: Circuit, assignment: Mapping[str, int]) -> dict[str, int]:
    """Evaluate one input pattern; returns the value of every signal."""
    values = simulate_patterns(
        circuit, {name: assignment[name] & 1 for name in circuit.inputs}, 1
    )
    return {signal: word & 1 for signal, word in values.items()}


def simulate_patterns(
    circuit: Circuit, input_words: Mapping[str, int], n_patterns: int
) -> dict[str, int]:
    """Parallel-pattern good-circuit simulation.

    ``input_words`` maps each primary input to a word whose bit *i* is the
    input's value under pattern *i*; ``n_patterns`` bounds the active bits.
    """
    mask = (1 << n_patterns) - 1
    values: dict[str, int] = {}
    for name in circuit.inputs:
        values[name] = input_words.get(name, 0) & mask
    for signal in circuit.topological_order():
        gate = circuit.gates[signal]
        fanin_values = [values[src] for src in gate.fanins]
        values[signal] = evaluate_gate(gate.gate_type, fanin_values, mask)
    return values


def simulate_with_fault(
    circuit: Circuit,
    input_words: Mapping[str, int],
    n_patterns: int,
    fault: Fault,
) -> dict[str, int]:
    """Parallel-pattern simulation of the faulty circuit.

    A *stem* fault forces the faulted signal itself; a *branch* fault
    forces the value seen by one specific gate input pin only.
    """
    mask = (1 << n_patterns) - 1
    forced = mask if fault.stuck_value else 0
    values: dict[str, int] = {}
    for name in circuit.inputs:
        word = input_words.get(name, 0) & mask
        if fault.is_stem and fault.line == name:
            word = forced
        values[name] = word
    for signal in circuit.topological_order():
        gate = circuit.gates[signal]
        fanin_values = []
        for pin, src in enumerate(gate.fanins):
            value = values[src]
            if (
                not fault.is_stem
                and fault.gate == signal
                and fault.pin == pin
            ):
                value = forced
            fanin_values.append(value)
        word = evaluate_gate(gate.gate_type, fanin_values, mask)
        if fault.is_stem and fault.line == signal:
            word = forced
        values[signal] = word
    return values


def fault_simulate(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Iterable[Fault],
    word_size: int = DEFAULT_WORD_SIZE,
    engine: str = "compiled",
) -> dict[Fault, bool]:
    """Which faults does the pattern set detect?

    Runs good/faulty parallel-pattern simulation ``word_size`` patterns
    at a time and compares primary outputs, dropping detected faults
    across batches.  Returns a detection flag per fault.  ``engine``
    selects the compiled cone-limited fast path or the reference
    whole-circuit interpreter (identical results).
    """
    _check_engine(engine)
    if engine == "compiled":
        from .compiled import CompiledFaultSimulator

        return CompiledFaultSimulator(circuit, word_size).fault_simulate(
            patterns, faults
        )
    faults = list(faults)
    detected: dict[Fault, bool] = {f: False for f in faults}
    for start in range(0, len(patterns), word_size):
        chunk = patterns[start : start + word_size]
        n = len(chunk)
        # One chunk mask, hoisted out of the per-fault loop; the packed
        # input words (and thus every simulated word) already honour it.
        chunk_mask = (1 << n) - 1
        input_words = _pack(circuit.inputs, chunk)
        good = simulate_patterns(circuit, input_words, n)
        good_outputs = [good[o] for o in circuit.outputs]
        for fault in faults:
            if detected[fault]:
                continue
            bad = simulate_with_fault(circuit, input_words, n, fault)
            for good_word, out in zip(good_outputs, circuit.outputs):
                if (good_word ^ bad[out]) & chunk_mask:
                    detected[fault] = True
                    break
    return detected


def compact_vectors(
    circuit: Circuit,
    vectors: Sequence[Mapping[str, int]],
    faults: Iterable[Fault],
    engine: str = "compiled",
) -> list[Mapping[str, int]]:
    """Reverse-order fault-simulation compaction.

    Classic trick: walk the deterministic vector list backwards, keep a
    vector only if it detects a fault not already covered by the kept set.
    This is what keeps the paper's ``#vect`` column well below the fault
    count.  The compiled engine records a per-vector detection bitmap in
    one forward pass instead of re-running the fault simulator per
    vector; the kept list is identical.
    """
    _check_engine(engine)
    if engine == "compiled":
        from .compiled import CompiledFaultSimulator

        return CompiledFaultSimulator(circuit).compact(vectors, faults)
    remaining = {
        f
        for f, hit in fault_simulate(
            circuit, vectors, faults, engine=engine
        ).items()
        if hit
    }
    kept: list[Mapping[str, int]] = []
    for vector in reversed(list(vectors)):
        if not remaining:
            break
        hits = {
            f
            for f, hit in fault_simulate(
                circuit, [vector], remaining, engine=engine
            ).items()
            if hit
        }
        if hits:
            kept.append(vector)
            remaining -= hits
    kept.reverse()
    return kept


def coverage(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Iterable[Fault],
    engine: str = "compiled",
) -> float:
    """Fault coverage (detected / total) of a pattern set."""
    results = fault_simulate(circuit, patterns, faults, engine=engine)
    if not results:
        return 1.0
    return sum(results.values()) / len(results)


def _pack(
    inputs: Sequence[str], patterns: Sequence[Mapping[str, int]]
) -> dict[str, int]:
    words: dict[str, int] = {name: 0 for name in inputs}
    for bit, pattern in enumerate(patterns):
        for name in inputs:
            if pattern.get(name, 0) & 1:
                words[name] |= 1 << bit
    return words
