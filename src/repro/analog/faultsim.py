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
  the *good* circuit are built once and kept by the engine
  (:meth:`repro.spice.MnaSolver.factorized`, with the source driven at
  unit amplitude inside the assembly, so the circuit is only read),
  every faulty response is a Sherman–Morrison rank-one update
  against that factorization, faulty gains are memoized per
  ``(element, deviation, frequency)``, digital fault propagation is
  memoized per ``(step, faulty code)``, and the program step that
  targets the faulted element is tried first (early exit).  Execution
  is *batch, then walk*: the whole population's own-step gains are
  precomputed up front (:meth:`repro.spice.FactorizedMna.
  deviation_batch` — one multi-RHS backend solve per distinct stimulus
  frequency, vectorized update scalars), and the serial detection walk
  then runs almost entirely on memo hits.  A fault that survives its
  own steps gets its remaining gains from the same kernel, one
  batch-of-one call each.

Both engines walk the program steps in the same order (the faulted
element's own step first), so — floating-point coincidences at a
comparator threshold aside — they produce *identical* outcome lists for
the same seed.  The differential test suite holds them to that.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..digital.compiled import CompiledCircuit
from ..digital.simulate import simulate
from ..spice import AnalogError, MnaSolver

__all__ = [
    "InjectionOutcome",
    "CampaignResult",
    "FaultSpec",
    "draw_faults",
    "step_order",
    "CampaignEngine",
    "ReferenceEngine",
    "FactorizedEngine",
    "ENGINES",
    "get_engine",
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
    #: ``True`` when one or more shards were quarantined after
    #: exhausting their retry budget: ``outcomes`` then covers only the
    #: shards that completed (byte-identical to their slices of a clean
    #: run) and ``failed_shards`` names what is missing.  Partial
    #: results participate in equality — a partial campaign never
    #: compares equal to a complete one.
    partial: bool = False
    #: the failed-shard manifest: one row per quarantined shard with
    #: ``shard``, ``start``/``stop`` fault bounds, ``attempts``,
    #: failure ``kind`` and the final ``error`` text.
    failed_shards: list = field(default_factory=list)

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
        text = (
            f"{self.n_injected} faults injected; "
            f"{self.detection_rate():.1%} overall detection, "
            f"{self.guaranteed_detection_rate:.1%} beyond the computed "
            f"worst-case deviation"
        )
        if self.partial:
            missing = sum(
                row["stop"] - row["start"] for row in self.failed_shards
            )
            text += (
                f" [PARTIAL: {len(self.failed_shards)} shard(s) "
                f"quarantined, {missing} fault(s) not executed]"
            )
        return text


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


class CampaignEngine:
    """Interface: execute a fault population against a test program.

    ``steps`` are the testable :class:`repro.core.AnalogElementTest`
    entries (each carries a stimulus and a digital vector); ``mixed`` is
    the circuit under test.  Returns one :class:`InjectionOutcome` per
    fault, in fault order.  Engines only read ``mixed``.
    After :meth:`run` returns, :attr:`last_diagnostics` describes what
    actually ran (backend name, factorizations built, multi-RHS solve
    counters) — use :func:`get_engine` to obtain a fresh instance per
    campaign so concurrent campaigns never share it.
    """

    name = "abstract"

    def __init__(self) -> None:
        #: diagnostics of the most recent :meth:`run` (or ``None``).
        self.last_diagnostics: dict | None = None

    def run(
        self, mixed, steps: Sequence, faults: Sequence[FaultSpec]
    ) -> list[InjectionOutcome]:
        raise NotImplementedError


class ReferenceEngine(CampaignEngine):
    """The slow, obviously-correct oracle.

    Every faulty response is a full re-assemble-and-solve of the
    deviated circuit.  The only lifting out of the fault loop is the
    good-circuit converter codes, which do not depend on the fault.
    """

    name = "reference"

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


class FactorizedEngine(CampaignEngine):
    """LU-factorized fast path: same outcomes, ~an order of magnitude
    less work per fault.

    Execution order is **batch, then walk**: after the per-frequency LU
    factorizations and the good-circuit responses are hoisted, every
    fault's *own-step* gains — the gains the early exit almost always
    decides on — are computed up front by
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
    that every choice yields the same outcomes.
    """

    name = "factorized"

    def run(
        self,
        mixed,
        steps: Sequence,
        faults: Sequence[FaultSpec],
        backend: str = "auto",
        digital_engine: str = "compiled",
    ) -> list[InjectionOutcome]:
        if not faults:
            # Emit the full diagnostics shape even with nothing to do:
            # empty shards land in the same artifact/service pipelines
            # as full ones, and consumers key into these fields.
            self.last_diagnostics = {
                "engine": self.name,
                "digital_engine": digital_engine,
                "batched_gains": 0,
                "backend": None,
                "factorizations": 0,
                "solve_calls": 0,
                "multi_rhs_solves": 0,
                "multi_rhs_columns": 0,
            }
            return []
        circuit = mixed.analog
        output = mixed.analog_output
        digital_outputs = tuple(mixed.digital.outputs)
        converter_lines = tuple(mixed.converter_lines)
        thresholds = tuple(mixed.adc.thresholds())
        if digital_engine == "compiled":
            # Levelized single-pattern evaluation: no per-call
            # topological re-walk or per-signal dict for the (step,
            # faulty code) response memo below.
            compiled = CompiledCircuit(mixed.digital)
            respond = compiled.evaluate_outputs
        else:
            def respond(assignment: dict) -> tuple[int, ...]:
                response = simulate(mixed.digital, assignment)
                return tuple(response[o] for o in digital_outputs)
        # The source is driven at unit amplitude inside the assembly,
        # so the good-circuit output phasor is the transfer value and
        # the shared circuit is only read.
        solver = MnaSolver(circuit, backend=backend, source=mixed.analog_source)
        # One LU per distinct stimulus frequency, shared by every
        # fault.
        factorized = {}
        good_gain = {}
        for step in steps:
            frequency = step.stimulus.frequency_hz
            if frequency not in factorized:
                system = solver.factorized(frequency)
                factorized[frequency] = system
                good_gain[frequency] = abs(system.solution().voltage(output))
        # Good codes and good digital responses, hoisted per step.
        # The response depends only on (vector, code), so steps that
        # share both share one digital simulation.
        good_codes: list[tuple[int, ...]] = []
        good_words: list[tuple[int, ...]] = []
        word_memo: dict[tuple, tuple[int, ...]] = {}
        for step in steps:
            stimulus = step.stimulus
            code = _convert(
                thresholds,
                stimulus.amplitude * good_gain[stimulus.frequency_hz],
            )
            good_codes.append(code)
            word_key = (tuple(step.vector.items()), code)
            word = word_memo.get(word_key)
            if word is None:
                assignment = dict(step.vector)
                for line, bit in zip(converter_lines, code):
                    assignment[line] = bit
                word = word_memo[word_key] = respond(assignment)
            good_words.append(word)
        own_steps: dict[str, list[int]] = {}
        for index, step in enumerate(steps):
            own_steps.setdefault(step.element, []).append(index)

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

        # Memoization across faults and steps.
        gain_memo: dict[tuple[str, float, float], float] = {}
        detect_memo: dict[tuple, bool] = {}

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

        def detect(index: int, code: tuple[int, ...]) -> bool:
            # Whether a faulty code is told apart from the good word
            # depends only on (vector, code, good word) — steps that
            # agree on all three share one digital simulation.
            step = steps[index]
            detect_key = (
                tuple(step.vector.items()),
                code,
                good_words[index],
            )
            hit = detect_memo.get(detect_key)
            if hit is None:
                assignment = dict(step.vector)
                for line, bit in zip(converter_lines, code):
                    assignment[line] = bit
                hit = detect_memo[detect_key] = (
                    respond(assignment) != good_words[index]
                )
            return hit

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
                if detect(index, code):
                    return True, steps[index].element
            return False, None

        verdicts = [evaluate(fault) for fault in faults]
        solve_stats = {
            "solve_calls": 0,
            "multi_rhs_solves": 0,
            "multi_rhs_columns": 0,
        }
        for system in factorized.values():
            for key, value in system.solve_stats().items():
                solve_stats[key] += value
        self.last_diagnostics = {
            "engine": self.name,
            "digital_engine": digital_engine,
            "batched_gains": batched_gains,
            "backend": solver.backend.name,
            "factorizations": len(factorized),
            **solve_stats,
        }
        return [
            InjectionOutcome(
                element=fault.element,
                deviation=fault.deviation,
                severity=fault.severity,
                detected=detected,
                detecting_target=detecting,
            )
            for fault, (detected, detecting) in zip(faults, verdicts)
        ]


#: engine name → engine instance; names mirror
#: ``repro.api.config.CAMPAIGN_ENGINES``.
ENGINES: dict[str, CampaignEngine] = {
    ReferenceEngine.name: ReferenceEngine(),
    FactorizedEngine.name: FactorizedEngine(),
}


def get_engine(name: str) -> CampaignEngine:
    """A *fresh* campaign engine instance by name.

    Fresh per call so the per-run :attr:`CampaignEngine.
    last_diagnostics` never races between concurrent campaigns; the
    :data:`ENGINES` table keeps one canonical instance per name for
    introspection.
    """
    try:
        return type(ENGINES[name])()
    except KeyError:
        raise AnalogError(
            f"unknown fault-simulation engine {name!r}; "
            f"known: {', '.join(sorted(ENGINES))}"
        ) from None
