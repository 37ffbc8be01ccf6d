"""Analog fault-simulation engines behind the injection campaign.

The campaign's figure of merit — "does the emitted program catch
injected parametric faults?" — reduces to many solves of the same MNA
system with one element deviated at a time.  Two engines share one
fault population and one detection semantics:

* ``reference`` — the straightforward oracle: every faulty converter
  code comes from a full re-assemble-and-solve of the deviated circuit
  (:meth:`MixedSignalCircuit.converter_code` with the fault's deviation
  state as its argument; the shared circuit is only read).  Good-circuit
  codes are hoisted out of the fault loop (they are fault independent),
  but nothing else is cached.
* ``factorized`` — the fast path: per-frequency LU factorizations of
  the *good* circuit are built once per program
  (:meth:`repro.spice.MnaSolver.factorizations`, from one compile, with the source driven at
  unit amplitude inside the assembly, so the circuit is only read),
  every faulty response is a Sherman–Morrison rank-one update
  against that factorization, digital fault propagation is memoized
  per ``(step vector, faulty code)``, and the program step that
  targets the faulted element is tried first (early exit).  Execution
  is *batch, then walk*: the whole population's own-step gains are
  precomputed up front (:meth:`repro.spice.FactorizedMna.
  deviation_batch` — one multi-RHS backend solve per distinct stimulus
  frequency, vectorized update scalars), and the own-step verdicts are
  then decided over arrays, one pass per own-step position.  A fault
  that survives its own steps walks the rest one stimulus at a time,
  and gets each further gain from the same kernel as a batch of one.

Both engines share one call, ``run(mixed, steps, faults)``: ``steps``
are the testable :class:`repro.core.AnalogElementTest` entries (each
carries a stimulus and a digital vector), the result is one
:class:`InjectionOutcome` per fault in fault order, and ``mixed`` is
only read.  After ``run`` returns, the instance's ``last_diagnostics``
describes what actually ran, so each campaign takes a fresh instance.
The factorized engine's ``run`` builds a :class:`PreparedProgram` — the
fault-independent preparation — and runs the faults on it; a sharded
campaign keeps one :class:`PreparedProgram` and runs each shard's fault
slice on it.  Both walk the program steps in the same order (the faulted
element's own step first), so — floating-point coincidences at a
comparator threshold aside — they produce *identical* outcome lists for
the same seed.  The differential test suite holds them to that.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..digital.compiled import CompiledCircuit
from ..digital.simulate import _check_engine, simulate
from ..spice import MnaSolver

__all__ = [
    "InjectionOutcome",
    "CampaignResult",
    "FaultSpec",
    "draw_faults",
    "step_order",
    "ReferenceEngine",
    "PreparedProgram",
    "FactorizedEngine",
]


@dataclass
class InjectionOutcome:
    """One injected fault and whether the program caught it."""

    element: str
    deviation: float
    #: deviation / guaranteed-detectable deviation (>1 = must catch).
    severity: float
    detected: bool
    detecting_target: str | None = None


@dataclass
class CampaignResult:
    """Aggregate campaign statistics."""

    outcomes: list[InjectionOutcome] = field(default_factory=list)
    #: engine/backend diagnostics of the run that produced the outcomes
    #: (backend, factorizations built etc.); ``None`` for deserialized
    #: results.  Excluded from artifact documents *and* from equality —
    #: two campaigns with identical outcomes compare equal regardless
    #: of which engine/backend produced them.
    diagnostics: dict | None = field(default=None, compare=False)

    @property
    def n_injected(self) -> int:
        """Total faults injected."""
        return len(self.outcomes)

    def detection_rate(self, min_severity: float = 0.0) -> float:
        """Detected / injected among faults at or above a severity."""
        eligible = [
            o for o in self.outcomes if o.severity >= min_severity
        ]
        if not eligible:
            return 1.0
        return sum(o.detected for o in eligible) / len(eligible)

    @property
    def guaranteed_detection_rate(self) -> float:
        """Detection rate over faults beyond their computed E.D.

        The method's promise: this should be 1.0.
        """
        return self.detection_rate(min_severity=1.05)

    def summary(self) -> str:
        """One-paragraph recap."""
        return (
            f"{self.n_injected} faults injected; "
            f"{self.detection_rate():.1%} overall detection, "
            f"{self.guaranteed_detection_rate:.1%} beyond the computed "
            f"worst-case deviation"
        )


@dataclass(frozen=True)
class FaultSpec:
    """One drawn parametric fault, before execution."""

    element: str
    deviation: float
    severity: float


def draw_faults(
    testable: Sequence,
    faults_per_element: int,
    severity_range: tuple[float, float],
    rng: random.Random,
) -> list[FaultSpec]:
    """Draw the seeded fault population both engines consume.

    The draw order (per element: severity, then direction) is the
    campaign's historical RNG contract — outcomes for a given seed stay
    comparable across engines and releases.

    Negative deviations are clamped at −0.95 to keep element values
    positive; a clamped fault's ``severity`` is recomputed from the
    deviation it was actually injected with (``|deviation| / ed``), so
    severity-bucketed statistics (``detection_rate(min_severity)``,
    ``guaranteed_detection_rate``) never score a fault under a severity
    it no longer has.  The clamp consumes no RNG draws, so seeded
    populations keep their historical element/deviation streams.
    """
    faults: list[FaultSpec] = []
    for test in testable:
        ed = test.ed_percent / 100.0
        for _ in range(faults_per_element):
            severity = rng.uniform(*severity_range)
            direction = rng.choice((+1.0, -1.0))
            deviation = direction * severity * ed
            if deviation <= -0.95:
                deviation = -0.95  # keep element values positive
                severity = abs(deviation) / ed
            faults.append(FaultSpec(test.element, deviation, severity))
    return faults


def step_order(steps: Sequence, element: str) -> list[int]:
    """Step indices with the faulted element's own step(s) first.

    The step generated *for* the deviated element is overwhelmingly the
    one that detects it, so trying it first makes the early exit fire on
    the first iteration for almost every fault.  The reference engine
    walks this order; the factorized engine reaches the same first
    detecting step over arrays and stimulus groups, keeping their
    outcome lists (including ``detecting_target``) identical.
    """
    own = [i for i, step in enumerate(steps) if step.element == element]
    rest = [i for i, step in enumerate(steps) if step.element != element]
    return own + rest


class ReferenceEngine:
    """The slow, obviously-correct oracle.

    Every faulty response is a full re-assemble-and-solve of the
    deviated circuit.  The only lifting out of the fault loop is the
    good-circuit converter codes, which do not depend on the fault.
    Campaigns never run it; ``repro audit`` and the differential tests
    call :meth:`run` directly on a population from
    :func:`repro.core.campaign.draw_population`.
    """

    name = "reference"
    #: diagnostics of the most recent :meth:`run` (or ``None``).
    last_diagnostics: dict | None = None

    def run(
        self, mixed, steps: Sequence, faults: Sequence[FaultSpec]
    ) -> list[InjectionOutcome]:
        # The oracle takes no backend or digital-engine choice: its
        # whole point is the unoptimized re-solve and re-interpret path
        # the fast engine is checked against.
        self.last_diagnostics = {
            "engine": self.name,
            "backend": "dense",
            "digital_engine": "reference",
        }
        # Good-circuit codes are fault independent: compute once per
        # step, not once per (fault, step) pair.
        good_codes = [
            mixed.converter_code(
                step.stimulus.frequency_hz, step.stimulus.amplitude
            )
            for step in steps
        ]
        outcomes: list[InjectionOutcome] = []
        for fault in faults:
            detected, detecting = False, None
            for index in step_order(steps, fault.element):
                if self._step_detects(
                    mixed, steps[index], good_codes[index], fault
                ):
                    detected, detecting = True, steps[index].element
                    break
            outcomes.append(
                InjectionOutcome(
                    element=fault.element,
                    deviation=fault.deviation,
                    severity=fault.severity,
                    detected=detected,
                    detecting_target=detecting,
                )
            )
        return outcomes

    @staticmethod
    def _step_detects(mixed, step, good_code, fault: FaultSpec) -> bool:
        """Execute one program step against one injected analog fault."""
        frequency = step.stimulus.frequency_hz
        amplitude = step.stimulus.amplitude
        faulty_code = mixed.converter_code(
            frequency, amplitude, {fault.element: fault.deviation}
        )
        if faulty_code == good_code:
            return False
        assignment_good = dict(step.vector)
        assignment_faulty = dict(step.vector)
        for line, good, faulty in zip(
            mixed.converter_lines, good_code, faulty_code
        ):
            assignment_good[line] = good
            assignment_faulty[line] = faulty
        good_outputs = simulate(mixed.digital, assignment_good)
        faulty_outputs = simulate(mixed.digital, assignment_faulty)
        return any(
            good_outputs[o] != faulty_outputs[o]
            for o in mixed.digital.outputs
        )


class PreparedProgram:
    """One test program prepared for factorized fault injection.

    The fault-independent half of :class:`FactorizedEngine`: the compiled
    digital circuit, one :class:`~repro.spice.MnaSolver`, one LU
    factorization per distinct stimulus frequency, and the program as
    arrays — per step its frequency, amplitude, good code (a threshold
    bitmask), digital vector and good digital word, each element's own
    steps, and the steps grouped by stimulus.  It is built by the first
    :meth:`run` that has faults to inject, so a campaign whose shards
    are all cached (or empty) prepares nothing, and every later
    :meth:`run` reuses it.  A sharded campaign runs all its shards on
    one instance.

    A :meth:`run` does not depend on the runs before it.  Its gains are
    its own, the factorizations' direction caches are released when it
    ends (:meth:`repro.spice.FactorizedMna.release_directions`), and its
    diagnostics count its own solves.  Only the digital-response memo is
    shared across runs: a response is a pure function of the step's
    vector and the converter code.

    ``digital_engine`` is checked here, up front; ``backend`` when the
    solver is built.
    """

    def __init__(
        self,
        mixed,
        steps: Sequence,
        backend: str = "auto",
        digital_engine: str = "compiled",
    ):
        _check_engine(digital_engine)
        self.mixed = mixed
        self.steps = steps
        self.backend = backend
        self.digital_engine = digital_engine
        self._factorized: list | None = None

    def _prepare(self) -> None:
        mixed, steps = self.mixed, self.steps
        self._output = mixed.analog_output
        self._converter_lines = tuple(mixed.converter_lines)
        if self.digital_engine == "compiled":
            # Levelized single-pattern evaluation: no per-call
            # topological re-walk or per-signal dict for the (vector,
            # faulty code) response memo below.
            self._respond = CompiledCircuit(mixed.digital).evaluate_outputs
        else:
            digital_outputs = tuple(mixed.digital.outputs)

            def respond(assignment: dict) -> tuple[int, ...]:
                response = simulate(mixed.digital, assignment)
                return tuple(response[o] for o in digital_outputs)

            self._respond = respond
        # The source is driven at unit amplitude inside the assembly,
        # so the good-circuit output phasor is the transfer value and
        # the shared circuit is only read.
        solver = MnaSolver(
            mixed.analog, backend=self.backend, source=mixed.analog_source
        )
        # One LU per distinct stimulus frequency, shared by every
        # fault; one compile (and one set of update ports) for all.
        # Frequencies are known by their position in this list.
        frequencies = list(
            dict.fromkeys(step.stimulus.frequency_hz for step in steps)
        )
        factorized = solver.factorizations(frequencies)
        good_gain = np.array([
            abs(system.solution().voltage(self._output))
            for system in factorized
        ])
        self._backend_name = solver.backend.name

        # Per step: frequency, amplitude, digital vector, good code.
        frequency_of = {f: i for i, f in enumerate(frequencies)}
        vector_of: dict[tuple, int] = {}
        for step in steps:
            vector_of.setdefault(tuple(step.vector.items()), len(vector_of))
        self._vectors = list(vector_of)
        self._step_frequency = np.array(
            [frequency_of[step.stimulus.frequency_hz] for step in steps],
            dtype=np.intp,
        )
        self._step_amplitude = np.array(
            [step.stimulus.amplitude for step in steps], dtype=float
        )
        self._step_vector = np.array(
            [vector_of[tuple(step.vector.items())] for step in steps],
            dtype=np.intp,
        )
        thresholds = mixed.adc.thresholds()
        self._thresholds = np.array(thresholds, dtype=float)
        # Comparator i is bit i of a code's mask.  A mask times the
        # vector count plus a vector id keys a (vector, code) pair; past
        # 62 bits the keys are Python integers.
        wide = len(thresholds) + len(vector_of).bit_length() > 62
        self._bits = np.array(
            [1 << bit for bit in range(len(thresholds))],
            dtype=object if wide else np.int64,
        )
        self._threshold_bits = list(zip(thresholds, self._bits.tolist()))
        self._good_masks = self._masks(
            self._step_amplitude * good_gain[self._step_frequency]
        )
        # Good digital words, hoisted per step.  A response depends only
        # on (vector, code), so steps that share both share one digital
        # simulation; words are known by id.
        self._words: dict[tuple[int, int], int] = {}
        self._word_ids: dict[tuple[int, ...], int] = {}
        self._good_words = np.array(
            [
                self._word(vector, mask)
                for vector, mask in zip(
                    self._step_vector.tolist(), self._good_masks.tolist()
                )
            ],
            dtype=np.intp,
        )

        # Element → own steps: one row per element, in step order, and a
        # last, empty row for an element no step targets.
        own: dict[str, list[int]] = {}
        for index, step in enumerate(steps):
            own.setdefault(step.element, []).append(index)
        self._element_row = {element: row for row, element in enumerate(own)}
        rows = len(own) + 1
        self._own_steps = np.full(
            (rows, max(map(len, own.values()), default=0)), -1, dtype=np.intp
        )
        self._own_count = np.zeros(rows, dtype=np.intp)
        self._own_at = np.zeros((rows, len(frequencies)), dtype=bool)
        #: each row's own-step frequencies, in first-use order.
        self._own_frequencies: list[list[int]] = []
        for row, indices in enumerate(own.values()):
            self._own_steps[row, : len(indices)] = indices
            self._own_count[row] = len(indices)
            self._own_at[row, self._step_frequency[indices]] = True
            self._own_frequencies.append(
                list(dict.fromkeys(self._step_frequency[indices].tolist()))
            )
        self._own_frequencies.append([])

        # Stimuli: the steps grouped by (frequency, amplitude), in step
        # order.  A fault's code, and the good code, depend only on the
        # stimulus.
        grouped: dict[tuple[float, float], list[int]] = {}
        for index, step in enumerate(steps):
            stimulus = step.stimulus
            grouped.setdefault(
                (stimulus.frequency_hz, stimulus.amplitude), []
            ).append(index)
        vectors = self._step_vector.tolist()
        good_words = self._good_words.tolist()
        self._stimuli = [
            (
                frequency_of[frequency],
                amplitude,
                int(self._good_masks[indices[0]]),
                [(i, vectors[i], good_words[i]) for i in indices],
            )
            for (frequency, amplitude), indices in grouped.items()
        ]
        #: per element row, its own steps and the order its tail visits
        #: the stimuli in; built on first use.
        self._tails: dict[int, tuple[set[int], list]] = {}
        # Set last: a preparation that raises is retried by the next run.
        self._factorized = factorized

    def _masks(self, peaks: np.ndarray) -> np.ndarray:
        """The converter code of each peak amplitude, as a bitmask.

        The same ``peak > threshold`` tests as
        :meth:`repro.conversion.FlashAdc.convert`, bit for bit: the
        differential suite compares engine outcome lists exactly.
        """
        return (peaks[:, None] > self._thresholds) @ self._bits

    def _mask(self, peak: float) -> int:
        """:meth:`_masks` of one peak, without the array overhead."""
        return sum(
            bit for threshold, bit in self._threshold_bits if peak > threshold
        )

    def _word(self, vector: int, mask: int) -> int:
        """The id of the digital response to vector ``vector`` with the
        code ``mask`` on the converter lines, memoized."""
        key = (vector, mask)
        word = self._words.get(key)
        if word is None:
            assignment = dict(self._vectors[vector])
            for bit, line in enumerate(self._converter_lines):
                assignment[line] = (mask >> bit) & 1
            response = self._respond(assignment)
            word = self._words[key] = self._word_ids.setdefault(
                response, len(self._word_ids)
            )
        return word

    def _idle_diagnostics(self) -> dict:
        # The full diagnostics shape even with nothing to do: empty
        # shards land in the same artifact/service pipelines as full
        # ones, and consumers key into these fields.
        return {
            "engine": FactorizedEngine.name,
            "digital_engine": self.digital_engine,
            "batched_gains": 0,
            "backend": None,
            "factorizations": 0,
            "solve_calls": 0,
            "multi_rhs_solves": 0,
            "multi_rhs_columns": 0,
        }

    def run(
        self, faults: Sequence[FaultSpec]
    ) -> tuple[list[InjectionOutcome], dict]:
        """Inject ``faults``: one outcome per fault, in fault order, and
        this run's diagnostics."""
        if not faults:
            return [], self._idle_diagnostics()
        if self._factorized is None:
            self._prepare()
        factorized = self._factorized
        before = [system.solve_stats() for system in factorized]
        try:
            verdicts, batched_gains = self._walk(faults)
        finally:
            for system in factorized:
                system.release_directions()
        solve_stats = {
            "solve_calls": 0,
            "multi_rhs_solves": 0,
            "multi_rhs_columns": 0,
        }
        for system, earlier in zip(factorized, before):
            for key, value in system.solve_stats().items():
                solve_stats[key] += value - earlier[key]
        diagnostics = {
            "engine": FactorizedEngine.name,
            "digital_engine": self.digital_engine,
            "batched_gains": batched_gains,
            "backend": self._backend_name,
            "factorizations": len(factorized),
            **solve_stats,
        }
        outcomes = [
            InjectionOutcome(
                element=fault.element,
                deviation=fault.deviation,
                severity=fault.severity,
                detected=detected,
                detecting_target=detecting,
            )
            for fault, (detected, detecting) in zip(faults, verdicts)
        ]
        return outcomes, diagnostics

    def _walk(
        self, faults: Sequence[FaultSpec]
    ) -> tuple[list[tuple[bool, str | None]], int]:
        """Batch, then walk: every fault's verdict, and the number of
        gains the up-front batch computed.

        The walk follows :func:`step_order` — a fault's own steps first,
        then the rest in step order — and stops at the first detecting
        step.  A verdict depends only on the fault's element and
        deviation, so each distinct pair is walked once.
        """
        pair_of: dict[tuple[str, float], int] = {}
        pair_of_fault = [
            pair_of.setdefault((fault.element, fault.deviation), len(pair_of))
            for fault in faults
        ]
        pairs = list(pair_of)
        rows = np.array(
            [
                self._element_row.get(element, len(self._element_row))
                for element, _ in pairs
            ],
            dtype=np.intp,
        )

        # The own-step gains — the gains the early exit almost always
        # decides on — as one deviation_batch per frequency, in the
        # order the faults first use each.  Gains belong to this run
        # alone: a gain can differ in the last ulp with the batch it
        # was computed in.
        gains = np.zeros((len(pairs), len(self._factorized)))
        batched_gains = 0
        first_use = dict.fromkeys(
            frequency
            for row in dict.fromkeys(rows.tolist())
            for frequency in self._own_frequencies[row]
        )
        for frequency in first_use:
            members = np.flatnonzero(self._own_at[rows, frequency])
            values = self._factorized[frequency].deviation_batch(
                [pairs[p] for p in members.tolist()], self._output
            )
            # libm's hypot, as abs(complex) is; np.abs can differ in the
            # last ulp.
            gains[members, frequency] = np.hypot(values.real, values.imag)
            batched_gains += len(members)

        # Own steps over arrays: one pass per own-step position decides,
        # for every pair still undetected, whether its step masks or
        # detects it.  ``detected`` holds the detecting step, or −1.
        detected = np.full(len(pairs), -1, dtype=np.intp)
        counts = self._own_count[rows]
        n_vectors = len(self._vectors)
        for position in range(int(counts.max(initial=0))):
            at = np.flatnonzero((counts > position) & (detected < 0))
            own = self._own_steps[rows[at], position]
            masks = self._masks(
                self._step_amplitude[own]
                * gains[at, self._step_frequency[own]]
            )
            changed = masks != self._good_masks[own]  # else conversion masks
            at, own, masks = at[changed], own[changed], masks[changed]
            if not len(at):
                continue
            vectors = self._step_vector[own]
            _, first, inverse = np.unique(
                masks * n_vectors + vectors,
                return_index=True,
                return_inverse=True,
            )
            words = np.array(
                [
                    self._word(vector, mask)
                    for vector, mask in zip(
                        vectors[first].tolist(), masks[first].tolist()
                    )
                ],
                dtype=np.intp,
            )
            hit = words[inverse] != self._good_words[own]
            detected[at[hit]] = own[hit]

        # The tail, for the pairs that survive their own steps.
        for p in np.flatnonzero(detected < 0).tolist():
            detected[p] = self._tail(pairs[p], int(rows[p]), gains[p])

        steps = self.steps
        verdicts = [
            (True, steps[index].element) if index >= 0 else (False, None)
            for index in detected.tolist()
        ]
        return [verdicts[p] for p in pair_of_fault], batched_gains

    def _tail(self, pair: tuple[str, float], row: int, own_gains) -> int:
        """The first step past its own that detects ``pair``, or −1.

        One stimulus at a time, in the order of each stimulus's first
        step that is not the element's own: the pair's code at a
        stimulus is computed once, and a code equal to the good code
        skips every step of the stimulus.  The walk stops once the next
        stimulus starts past the best detection so far, so it asks for
        exactly the gains, in the order, that a step-by-step walk would:
        each a lazy batch-of-one :meth:`repro.spice.FactorizedMna.
        deviation_batch` call, unless the own-step batch holds it.
        """
        tail = self._tails.get(row)
        if tail is None:
            own = set(self._own_steps[row, : self._own_count[row]].tolist())
            visits = []
            for stimulus in self._stimuli:
                for index, _, _ in stimulus[3]:
                    if index not in own:
                        visits.append((index, stimulus))
                        break
            visits.sort(key=lambda visit: visit[0])
            tail = self._tails[row] = own, visits
        own, visits = tail
        best = len(self.steps)
        tail_gains: dict[int, float] = {}
        for first, (frequency, amplitude, good_mask, members) in visits:
            if first > best:
                break
            if self._own_at[row, frequency]:
                gain = own_gains[frequency]
            else:
                gain = tail_gains.get(frequency)
                if gain is None:
                    value = self._factorized[frequency].deviation_batch(
                        [pair], self._output
                    )[0]
                    gain = tail_gains[frequency] = abs(complex(value))
            mask = self._mask(amplitude * gain)
            if mask == good_mask:
                continue  # conversion masks the fault at this stimulus
            for index, vector, good_word in members:
                if index > best:
                    break
                if index not in own and self._word(vector, mask) != good_word:
                    best = index
                    break
        return best if best < len(self.steps) else -1


class FactorizedEngine:
    """LU-factorized fast path: same outcomes, ~an order of magnitude
    less work per fault.

    :meth:`run` prepares the program once (:class:`PreparedProgram`:
    the per-frequency LU factorizations, the good-circuit responses and
    the program laid out as arrays), then executes it **batch, then
    walk**: every fault's *own-step* gains — the gains the early exit
    almost always decides on — are computed up front by
    :meth:`repro.spice.FactorizedMna.deviation_batch`, one multi-RHS
    backend solve per distinct stimulus frequency.  The walk keeps the
    exact ``step_order`` early-exit semantics: one array pass per
    own-step position decides which faults their own step masks or
    detects, and only a fault that survives its own steps walks the
    rest, one stimulus at a time, paying lazily computed batch-of-one
    updates for the frequencies its own steps did not cover.  Every
    gain therefore comes from the one Sherman–Morrison kernel,
    :meth:`~repro.spice.FactorizedMna.deviation_batch`.

    Cost model: the reference engine pays a full matrix assembly and
    dense solve per (fault, step) pair, twice (good and faulty
    circuit).  Here the own-step updates' per-direction solves
    collapse into one multi-RHS call per frequency and the
    update scalars vectorize across the whole population, with no
    per-fault Python/solver round trips.

    Campaigns run it on the defaults.  ``backend`` (a
    :mod:`repro.spice.backends` name) and ``digital_engine`` (the
    compiled levelized circuit or the ``"reference"`` interpreter) are
    there for ``repro audit`` and the differential tests, which check
    that every choice yields the same outcomes; an unknown
    ``digital_engine`` raises :class:`ValueError` before any work.
    """

    name = "factorized"
    #: diagnostics of the most recent :meth:`run` (or ``None``): backend
    #: name, factorizations built, multi-RHS solve counters.
    last_diagnostics: dict | None = None

    def run(
        self,
        mixed,
        steps: Sequence,
        faults: Sequence[FaultSpec],
        backend: str = "auto",
        digital_engine: str = "compiled",
    ) -> list[InjectionOutcome]:
        program = PreparedProgram(mixed, steps, backend, digital_engine)
        outcomes, self.last_diagnostics = program.run(faults)
        return outcomes
