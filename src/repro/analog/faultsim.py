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
  (:meth:`repro.spice.MnaSolver.factorized`, with the source driven at
  unit amplitude inside the assembly, so the circuit is only read),
  every faulty response is a Sherman–Morrison rank-one update
  against that factorization, faulty gains are memoized per
  ``(element, deviation, frequency)``, digital fault propagation is
  memoized per ``(step vector, faulty code)``, and the program step that
  targets the faulted element is tried first (early exit).  Execution
  is *batch, then walk*: the whole population's own-step gains are
  precomputed up front (:meth:`repro.spice.FactorizedMna.
  deviation_batch` — one multi-RHS backend solve per distinct stimulus
  frequency, vectorized update scalars), and the serial detection walk
  then runs almost entirely on memo hits.  A fault that survives its
  own steps gets its remaining gains from the same kernel, one
  batch-of-one call each.

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
    walks this order and the factorized engine streams the same one,
    keeping their outcome lists (including ``detecting_target``)
    identical.
    """
    own = [i for i, step in enumerate(steps) if step.element == element]
    rest = [i for i, step in enumerate(steps) if step.element != element]
    return own + rest


def _convert(thresholds: tuple[float, ...], v_in: float) -> tuple[int, ...]:
    """Thermometer code against hoisted ladder thresholds.

    Must mirror :meth:`repro.conversion.FlashAdc.convert` bit for bit —
    the differential suite compares engine outcome lists exactly.
    """
    return tuple(1 if v_in > vt else 0 for vt in thresholds)


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
    factorization per distinct stimulus frequency, the good-circuit
    gains, codes and digital words per step, and the steps grouped by
    the element they target.  It is built by the first :meth:`run` that
    has faults to inject, so a campaign whose shards are all cached (or
    empty) prepares nothing, and every later :meth:`run` reuses it.  A
    sharded campaign runs all its shards on one instance.

    A :meth:`run` does not depend on the runs before it.  Its gain memo
    is its own, the factorizations' direction caches are released when
    it ends (:meth:`repro.spice.FactorizedMna.release_directions`), and
    its diagnostics count its own solves.  Only the digital-response
    memo is shared across runs: a response is a pure function of the
    step's vector and the converter code.

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
        self._factorized: dict | None = None

    def _prepare(self) -> None:
        mixed, steps = self.mixed, self.steps
        self._output = mixed.analog_output
        self._converter_lines = tuple(mixed.converter_lines)
        self._thresholds = thresholds = tuple(mixed.adc.thresholds())
        if self.digital_engine == "compiled":
            # Levelized single-pattern evaluation: no per-call
            # topological re-walk or per-signal dict for the (step,
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
        # fault.
        factorized = {}
        good_gain = {}
        for step in steps:
            frequency = step.stimulus.frequency_hz
            if frequency not in factorized:
                system = solver.factorized(frequency)
                factorized[frequency] = system
                good_gain[frequency] = abs(
                    system.solution().voltage(self._output)
                )
        self._backend_name = solver.backend.name
        # Good codes and good digital responses, hoisted per step.
        # The response depends only on (vector, code), so steps that
        # share both share one digital simulation.
        self._vectors = [tuple(step.vector.items()) for step in steps]
        self._words: dict[tuple, tuple[int, ...]] = {}
        self._good_codes = [
            _convert(
                thresholds,
                step.stimulus.amplitude
                * good_gain[step.stimulus.frequency_hz],
            )
            for step in steps
        ]
        self._good_words = [
            self._word(index, code)
            for index, code in enumerate(self._good_codes)
        ]
        self._own_steps: dict[str, list[int]] = {}
        for index, step in enumerate(steps):
            self._own_steps.setdefault(step.element, []).append(index)
        # Set last: a preparation that raises is retried by the next run.
        self._factorized = factorized

    def _word(self, index: int, code: tuple[int, ...]) -> tuple[int, ...]:
        """Step ``index``'s digital response with ``code`` on the
        converter lines, memoized on (vector, code)."""
        key = (self._vectors[index], code)
        word = self._words.get(key)
        if word is None:
            assignment = dict(self.steps[index].vector)
            for line, bit in zip(self._converter_lines, code):
                assignment[line] = bit
            word = self._words[key] = self._respond(assignment)
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
        before = {
            frequency: system.solve_stats()
            for frequency, system in factorized.items()
        }
        try:
            verdicts, batched_gains = self._walk(faults)
        finally:
            for system in factorized.values():
                system.release_directions()
        solve_stats = {
            "solve_calls": 0,
            "multi_rhs_solves": 0,
            "multi_rhs_columns": 0,
        }
        for frequency, system in factorized.items():
            for key, value in system.solve_stats().items():
                solve_stats[key] += value - before[frequency][key]
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
        gains the up-front batch computed."""
        steps = self.steps
        output = self._output
        thresholds = self._thresholds
        factorized = self._factorized
        good_codes = self._good_codes
        good_words = self._good_words
        own_steps = self._own_steps
        word = self._word

        def order_of(element):
            # step_order, streamed: the early-exit prefix (the
            # fault's own steps) comes from one grouping pass; the
            # tail is generated only for faults that survive it.
            # Materializing step_order per element is quadratic in
            # the step count and dominates ladder-scale campaigns.
            yield from own_steps.get(element, ())
            for index, step in enumerate(steps):
                if step.element != element:
                    yield index

        # Gains are memoized per run, never across runs: a gain can
        # differ in the last ulp with the batch it was computed in.
        gain_memo: dict[tuple[str, float, float], float] = {}

        # Batch-then-walk: precompute every fault's own-step gains
        # — the gains the early exit almost always decides on — as
        # one deviation_batch per distinct stimulus frequency, so
        # the walk below starts with the memo already hot.
        batched_gains = 0
        pending: dict[float, dict[tuple[str, float], None]] = {}
        for fault in faults:
            for idx in own_steps.get(fault.element, ()):
                step = steps[idx]
                pending.setdefault(step.stimulus.frequency_hz, {})[
                    (fault.element, fault.deviation)
                ] = None
        for frequency, keyed in pending.items():
            pairs = list(keyed)
            values = factorized[frequency].deviation_batch(pairs, output)
            for (element, deviation), value in zip(pairs, values):
                gain_memo[(element, deviation, frequency)] = abs(
                    complex(value)
                )
            batched_gains += len(pairs)

        def fault_gain(fault: FaultSpec, frequency: float) -> float:
            gain_key = (fault.element, fault.deviation, frequency)
            gain = gain_memo.get(gain_key)
            if gain is None:
                # A tail gain: the fault survived its own steps.
                value = factorized[frequency].deviation_batch(
                    [(fault.element, fault.deviation)], output
                )[0]
                gain = gain_memo[gain_key] = abs(complex(value))
            return gain

        def evaluate(fault: FaultSpec) -> tuple[bool, str | None]:
            # A fault's converted code depends only on the stimulus,
            # never on the step, so one small per-fault memo
            # collapses the undetected-fault tail walk to lookups.
            codes: dict[tuple[float, float], tuple[int, ...]] = {}
            for index in order_of(fault.element):
                stimulus = steps[index].stimulus
                code_key = (stimulus.frequency_hz, stimulus.amplitude)
                code = codes.get(code_key)
                if code is None:
                    gain = fault_gain(fault, stimulus.frequency_hz)
                    code = _convert(thresholds, stimulus.amplitude * gain)
                    codes[code_key] = code
                if code == good_codes[index]:
                    continue  # conversion masks the fault here
                if word(index, code) != good_words[index]:
                    return True, steps[index].element
            return False, None

        return [evaluate(fault) for fault in faults], batched_gains


class FactorizedEngine:
    """LU-factorized fast path: same outcomes, ~an order of magnitude
    less work per fault.

    :meth:`run` prepares the program once (:class:`PreparedProgram`:
    the per-frequency LU factorizations and the good-circuit
    responses), then executes it **batch, then walk**: every fault's
    *own-step* gains — the gains the early exit almost always decides
    on — are computed up front by
    :meth:`repro.spice.FactorizedMna.deviation_batch`, one multi-RHS
    backend solve per distinct stimulus frequency, and published into
    the gain memo.  The serial detection walk that follows keeps the
    exact ``step_order`` early-exit semantics, but runs almost entirely
    on memo hits; only a fault that survives its own steps pays further
    (lazily computed, memoized) batch-of-one updates on the remaining
    steps.  Every gain therefore comes from the one Sherman–Morrison
    kernel, :meth:`~repro.spice.FactorizedMna.deviation_batch`.

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
