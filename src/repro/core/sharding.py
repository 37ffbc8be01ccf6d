"""Deterministic sharded campaign execution, resumable through the cache.

A fault-injection campaign is embarrassingly parallel *across faults*:
every :class:`~repro.analog.faultsim.InjectionOutcome` depends only on
its own :class:`~repro.analog.faultsim.FaultSpec`, the circuit and the
program steps — never on another fault.  This module exploits that by
splitting one campaign into ``N`` shards that execute in worker
*processes* (threads remain the in-shard engine fan-out) and merge back
into a single :class:`~repro.analog.faultsim.CampaignResult` that is
byte-identical to the unsharded run.

Seed-splitting contract
-----------------------
The fault population is drawn **once** in the parent from
``random.Random(config.seed)`` — exactly as the unsharded path does —
and partitioned by index into contiguous balanced slices
(:func:`shard_bounds`).  Shards never re-draw: no fault can be drawn
twice or skipped, whatever the shard count, and concatenating the
per-shard outcome lists in shard order *is* the unsharded outcome list.

Execution
---------
Shards run on a ``ProcessPoolExecutor`` using the ``fork`` start method:
the workers inherit the prepared circuit, steps and fault population
from the parent's address space, so nothing non-picklable ever crosses
a process boundary (only shard indices go in and plain outcome
dataclasses come back).  Where ``fork`` is unavailable — or only a
single shard needs work — shards execute in-process, in shard order,
with identical results.

Resume
------
With :attr:`~repro.api.config.CampaignConfig.cache_dir` set, every
completed shard is published to a :class:`repro.core.cache.ResultCache`
under :data:`SHARD_NAMESPACE` as a versioned ``campaign-shard``
:class:`~repro.api.artifact.Artifact`, keyed by :func:`shard_fingerprint`
— a digest of the circuit, the program steps, the outcome-relevant
config fields and the shard's own fault slice.  A re-run looks each
shard up by that key and executes only the misses, so an interrupted
campaign resumes from its finished shards instead of restarting.

Resilience
----------
Each shard gets :attr:`~repro.api.config.CampaignConfig.shard_attempts`
execution attempts, retried under a deterministic seeded backoff
(:class:`~repro.core.resilience.RetryPolicy` — re-runs retry on
identical schedules).  A shard that exhausts its budget is
**quarantined**: the campaign completes with
:attr:`~repro.analog.faultsim.CampaignResult.partial` set, a
failed-shard manifest, and (with a cache) a durable ``failure`` artifact
under ``<cache_dir>/failures/`` — merged outcomes on the finished shards
stay byte-identical
to a clean run.  Set ``quarantine=False`` to abort instead
(:class:`ShardExecutionError`).  Worker-process loss
(``BrokenProcessPool`` — a crashed or OOM-killed worker) costs the
in-flight shards one attempt each and **degrades** the rest of the
campaign to in-process execution rather than failing it.  With
``shard_timeout`` set, a hung shard's workers are killed at the deadline
(completed shards stay cached) and the shard is retried
in-process.  ``heartbeat_interval`` streams :class:`ShardHeartbeat`
liveness events through ``progress`` while shards execute; retry
decisions stream as :class:`ShardRetry`.  The chaos harness
(:mod:`repro.devtools.chaos`) injects all of these failures
deterministically so every recovery path above is testable on demand.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..analog.faultsim import (
    CampaignResult,
    FaultSpec,
    InjectionOutcome,
    get_engine,
)
from ..api.config import CampaignConfig, ConfigError
from .fingerprint import fingerprint_of
from .resilience import FailureRecord, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard dep
    from ..devtools.chaos import ChaosPlan

__all__ = [
    "FINGERPRINT_EXCLUDED_FIELDS",
    "SHARD_NAMESPACE",
    "ShardRun",
    "ShardRetry",
    "ShardHeartbeat",
    "ShardExecutionError",
    "shard_bounds",
    "campaign_fingerprint",
    "shard_fingerprint",
    "failure_path",
    "run_sharded_campaign",
]

#: :class:`repro.core.cache.ResultCache` namespace shard results live
#: under when :attr:`~repro.api.config.CampaignConfig.cache_dir` is set.
SHARD_NAMESPACE = "campaign-shard"

#: :class:`~repro.api.config.CampaignConfig` fields deliberately OUTSIDE
#: campaign fingerprints (and the service layer's dedup key, which
#: mirrors this contract): each changes how the work is split, cached,
#: persisted or *recovered* — never which outcomes it produces — so
#: respecting them in the key would invalidate cached shards and defeat
#: dedup on re-runs that only retune the fan-out or the failure
#: handling.  Every other field MUST be read by
#: :func:`campaign_fingerprint`; the FPR002 lint rule
#: (:mod:`repro.devtools.lint`) enforces both directions, so a new
#: config knob cannot silently leak into or out of dedup identity.
FINGERPRINT_EXCLUDED_FIELDS = frozenset(
    {
        "max_workers",      # thread fan-out inside an engine
        "shards",           # process partitioning of the population
        "shard_workers",    # process fan-out over shards
        "shard_attempts",   # how failures are retried, not outcomes
        "shard_timeout",    # when hung workers are killed
        "retry_backoff",    # how long retries wait, pure scheduling
        "quarantine",       # abort vs partial-complete on exhaustion
        "heartbeat_interval",  # liveness reporting cadence
        "chaos",            # injected faults perturb execution, not
                            # the outcomes of any run that completes
        "cache_dir",        # where shard results persist, not what
                            # they are
    }
)

#: supervision granularity of the pool driver: retries launch, deadlines
#: fire and heartbeats emit within one tick of their due time.
_TICK = 0.05


class ShardExecutionError(RuntimeError):
    """A shard exhausted its attempts and quarantine is disabled."""


def shard_bounds(n_faults: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` fault slices per shard.

    The first ``n_faults % shards`` shards carry one extra fault, so any
    shard count partitions any population exactly — shard counts that do
    not divide the fault count simply yield uneven (possibly empty)
    slices, never dropped or duplicated faults.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    if n_faults < 0:
        raise ConfigError(f"n_faults must be >= 0, got {n_faults!r}")
    base, extra = divmod(n_faults, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _step_document(step) -> list:
    """One program step's outcome-relevant identity, JSON-encodable."""
    stimulus = getattr(step, "stimulus", None)
    vector = getattr(step, "vector", None)
    return [
        step.element,
        None if stimulus is None else stimulus.frequency_hz,
        None if stimulus is None else stimulus.amplitude,
        None if vector is None else sorted(dict(vector).items()),
        getattr(step, "observing_output", None),
    ]


def campaign_fingerprint(
    circuit_name: str,
    config: CampaignConfig,
    faults: Sequence[FaultSpec],
    steps: Sequence = (),
) -> str:
    """Digest identifying one campaign's outcome-relevant identity.

    Covers the circuit name, the drawn fault population (element,
    deviation, severity — the floats verbatim), the test-program steps
    the faults run against (stimulus and digital vector per step — a
    regenerated program must never be scored with another program's
    results) and every config field that can influence an outcome.
    Shard counts, worker counts, the cache directory and the resilience
    knobs are deliberately *excluded*: outcomes are independent of how
    the work is split, persisted or recovered.
    """
    document = {
        "circuit": circuit_name,
        "seed": config.seed,
        "faults_per_element": config.faults_per_element,
        "severity_range": list(config.severity_range),
        "engine": config.engine,
        "backend": config.backend,
        "digital_engine": config.digital_engine,
        "faults": [[f.element, f.deviation, f.severity] for f in faults],
        "steps": [_step_document(step) for step in steps],
    }
    return fingerprint_of(document)


def shard_fingerprint(
    circuit_name: str,
    config: CampaignConfig,
    faults: Sequence[FaultSpec],
    steps: Sequence = (),
) -> str:
    """Content digest of one shard's *own* work: its fault slice.

    Unlike :func:`campaign_fingerprint`, the population-drawing knobs
    (``seed``, ``faults_per_element``, ``severity_range``) are implied
    by the fault slice itself rather than hashed — the slice *is* the
    drawn population, fully specified as ``(element, deviation,
    severity)`` triples — and the shard index and count are deliberately
    absent.  Two campaigns that assign the same faults to a shard
    therefore share one cache entry whatever their shard layout, which
    is exactly what makes a one-element edit recompute only the shards
    whose slices changed: every untouched slice keeps its fingerprint
    and is served from the :class:`repro.core.cache.ResultCache`.
    """
    document = {
        "kind": "campaign-shard",
        "circuit": circuit_name,
        "engine": config.engine,
        "backend": config.backend,
        "digital_engine": config.digital_engine,
        "faults": [[f.element, f.deviation, f.severity] for f in faults],
        "steps": [_step_document(step) for step in steps],
    }
    return fingerprint_of(document)


def failure_path(cache_dir: str | Path, fingerprint: str) -> Path:
    """Where a quarantined shard's evidence persists: under the cache
    root's ``failures/``, named by the shard's :func:`shard_fingerprint`
    (the service keeps job evidence in the same place under its root)."""
    return Path(cache_dir) / "failures" / f"{fingerprint}.json"


@dataclass
class ShardRun:
    """One shard's execution record, fresh or served from the cache.

    ``resumed`` is True whenever the shard was *not* executed by this
    run.
    """

    index: int
    outcomes: list[InjectionOutcome]
    seconds: float
    resumed: bool = False
    diagnostics: dict | None = None


@dataclass(frozen=True)
class ShardRetry:
    """One failed shard attempt, streamed through ``progress``.

    ``next_attempt`` is the attempt about to be scheduled, or ``None``
    when the budget is exhausted and the shard was quarantined (or, with
    ``quarantine=False``, the campaign is about to abort).
    """

    index: int
    attempt: int
    error: str
    kind: str
    next_attempt: int | None


@dataclass(frozen=True)
class ShardHeartbeat:
    """Executor liveness, streamed through ``progress`` while shards run.

    Emitted at most every
    :attr:`~repro.api.config.CampaignConfig.heartbeat_interval` seconds;
    ``running`` lists the shards in flight at emission time.
    """

    running: tuple[int, ...]
    completed: int
    shards: int
    elapsed: float


@dataclass
class _ShardFailure:
    """One failed attempt, returned as *data* across the process boundary.

    Workers never raise into the pool: an exception escaping a worker
    only reports which future failed, while a value reports the attempt
    number and failure kind the supervisor needs for retry decisions —
    and survives ``fork``-boundary pickling no matter what the original
    exception was.  ``kind`` is ``"exception"``, ``"worker-lost"`` or
    ``"deadline"``.
    """

    index: int
    attempt: int
    error: str
    kind: str
    seconds: float = 0.0


# ----------------------------------------------------------------------
# fork-shared execution context
# ----------------------------------------------------------------------
@dataclass
class _ShardContext:
    """Everything a shard worker needs, inherited across ``fork``."""

    mixed: object
    steps: Sequence
    faults: Sequence[FaultSpec]
    bounds: list[tuple[int, int]]
    config: CampaignConfig


#: the active context, read by forked workers; guarded by ``_fork_lock``
#: so concurrent sharded campaigns in one process serialize their pools
#: instead of clobbering each other's context.
_fork_context: _ShardContext | None = None
_fork_lock = threading.Lock()


def _active_plan(config: CampaignConfig) -> "ChaosPlan | None":
    """The chaos plan in force, or ``None`` (the production fast path).

    Imported lazily and only when a spec is present, so campaigns never
    pay for :mod:`repro.devtools` unless chaos is actually requested.
    """
    if config.chaos is None and not os.environ.get("REPRO_CHAOS"):
        return None
    from ..devtools.chaos import resolve_plan

    return resolve_plan(config.chaos)


def _execute_shard(context: _ShardContext, index: int) -> ShardRun:
    """Run one shard's fault slice on a fresh engine instance."""
    start, stop = context.bounds[index]
    config = context.config
    engine = get_engine(config.engine)
    begin = time.perf_counter()
    outcomes = engine.run(
        context.mixed,
        context.steps,
        list(context.faults[start:stop]),
        max_workers=config.max_workers,
        backend=config.backend,
        digital_engine=config.digital_engine,
    )
    return ShardRun(
        index=index,
        outcomes=outcomes,
        seconds=time.perf_counter() - begin,
        diagnostics=engine.last_diagnostics,
    )


def _execute_shard_guarded(
    context: _ShardContext, index: int, attempt: int, in_process: bool
) -> ShardRun | _ShardFailure:
    """One guarded attempt: chaos hook, execution, deadline check.

    Failures come back as :class:`_ShardFailure` values, never as raised
    exceptions — the supervisor decides retry vs quarantine, and values
    cross the fork boundary reliably where arbitrary exceptions may not.
    """
    begin = time.perf_counter()
    try:
        plan = _active_plan(context.config)
        if plan is not None:
            plan.fire("shard", index, attempt=attempt, in_process=in_process)
        run = _execute_shard(context, index)
    except Exception as error:
        return _ShardFailure(
            index=index,
            attempt=attempt,
            error=f"{type(error).__name__}: {error}",
            kind="exception",
            seconds=time.perf_counter() - begin,
        )
    timeout = context.config.shard_timeout
    total = time.perf_counter() - begin
    if timeout is not None and total > timeout:
        # The in-process deadline is a check-after: nothing can kill a
        # shard running in the caller's own process, so an overrun is
        # detected on completion and its result discarded for a retry.
        # (The pool driver kills overrunning *workers* pre-emptively.)
        return _ShardFailure(
            index=index,
            attempt=attempt,
            error=(
                f"shard {index} exceeded its {timeout:.3f}s deadline "
                f"({total:.3f}s elapsed)"
            ),
            kind="deadline",
            seconds=total,
        )
    return run


def _execute_shard_forked(index: int, attempt: int) -> ShardRun | _ShardFailure:
    """Process-pool entry point: runs in a forked worker."""
    context = _fork_context
    if context is None:  # pragma: no cover — defensive, fork inherits it
        raise RuntimeError("shard worker forked without a campaign context")
    return _execute_shard_guarded(context, index, attempt, in_process=False)


# ----------------------------------------------------------------------
# shard persistence: the result cache
# ----------------------------------------------------------------------
def _write_failure(
    cache_dir: str | Path, record: FailureRecord, fingerprint: str
) -> Path:
    """Persist a quarantined shard's evidence as a ``failure`` artifact."""
    from ..api.artifact import Artifact
    from .atomic_io import write_artifact_atomic

    path = failure_path(cache_dir, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_artifact_atomic(path, Artifact.from_failure(record))


def _shard_artifact(run: ShardRun, shards: int, fingerprint: str, circuit_name: str):
    """One shard result as a ``campaign-shard`` artifact envelope."""
    from ..api.artifact import Artifact

    return Artifact.from_campaign_shard(
        CampaignResult(outcomes=run.outcomes),
        shard_index=run.index,
        n_shards=shards,
        fingerprint=fingerprint,
        circuit=circuit_name,
        seconds=run.seconds,
        # Engine diagnostics ride along so a fully-resumed campaign
        # still reports which backend/engines produced its outcomes.
        meta={"diagnostics": run.diagnostics or {}},
    )


def _cache_shard(
    cache,
    fingerprint: str,
    run: ShardRun,
    shards: int,
    circuit_name: str,
    plan: "ChaosPlan | None" = None,
) -> None:
    """Publish one completed shard into the content-addressed cache."""
    artifact = _shard_artifact(run, shards, fingerprint, circuit_name)
    if plan is not None:
        event = plan.event_for("checkpoint", run.index)
        if event is not None and event.action == "torn":
            # Simulate dying mid-write to the entry's final path: leave
            # half the document behind and abort.  Resume must read the
            # torn entry as a miss and re-execute exactly this shard.
            from ..devtools.chaos import ChaosError

            text = artifact.to_json()
            path = cache.path_for(SHARD_NAMESPACE, fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text[: len(text) // 2], encoding="utf-8")
            raise ChaosError(
                f"chaos[checkpoint:{run.index}]: torn shard cache entry"
            )
    cache.put_artifact(SHARD_NAMESPACE, fingerprint, artifact)


def _load_cached_shard(cache, fingerprint: str, index: int) -> ShardRun | None:
    """A shard's cached result, or ``None`` on a miss.

    The entry is content-addressed by :func:`shard_fingerprint`, so the
    stored ``shard_index``/``n_shards`` describe the layout of the run
    that *produced* it — only the payload fingerprint must match for the
    outcomes to be this shard's slice verbatim.
    """
    artifact = cache.get_artifact(
        SHARD_NAMESPACE, fingerprint, kind="campaign-shard"
    )
    if artifact is None:
        return None
    payload = artifact.payload
    if payload.get("fingerprint") != fingerprint:
        return None  # foreign or hand-edited entry: a miss, not an error
    return ShardRun(
        index=index,
        outcomes=artifact.campaign().outcomes,
        seconds=float(payload.get("seconds", 0.0)),
        resumed=True,
        diagnostics=artifact.meta.get("diagnostics") or None,
    )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def _resolve_shard_workers(config: CampaignConfig, pending: int) -> int:
    if config.shard_workers is not None:
        return max(1, min(config.shard_workers, pending))
    return max(1, min(pending, os.cpu_count() or 1))


def run_sharded_campaign(
    mixed,
    steps: Sequence,
    faults: Sequence[FaultSpec],
    config: CampaignConfig,
    progress=None,
) -> CampaignResult:
    """Execute a pre-drawn fault population in deterministic shards.

    ``faults`` must be the population drawn once from
    ``random.Random(config.seed)`` (see :func:`repro.analog.faultsim.
    draw_faults`); this function never draws.  Outcomes are merged in
    fault order, so the returned result equals the unsharded run of the
    same population exactly.  With ``config.cache_dir`` set, completed
    shards are cached as ``campaign-shard`` artifacts and cached shards
    are served instead of re-executed.

    Failed shard attempts are retried under the config's deterministic
    backoff; shards that exhaust ``config.shard_attempts`` are
    quarantined (the result comes back ``partial`` with a failed-shard
    manifest) unless ``config.quarantine`` is off, in which case the
    campaign raises :class:`ShardExecutionError`.  Lost worker processes
    degrade the remaining shards to in-process execution instead of
    failing the campaign.

    ``progress``, when given, is called in the parent with each
    completed (or cache-served) :class:`ShardRun` the moment it
    lands — the streaming hook the service layer's job events ride on —
    and additionally with :class:`ShardRetry` per failed attempt and
    :class:`ShardHeartbeat` liveness ticks when
    ``config.heartbeat_interval`` is set.  An exception raised by the
    callback aborts the campaign (completed shards stay cached), which
    is how a job cancellation interrupts a run
    between shards.
    """
    shards = config.shards
    bounds = shard_bounds(len(faults), shards)
    fingerprint = campaign_fingerprint(mixed.name, config, faults, steps)
    cache = None
    shard_fps: list[str] = []
    if config.cache_dir is not None:
        # Imported lazily so campaigns without a cache never touch it.
        from .cache import ResultCache

        cache = ResultCache(config.cache_dir)
        shard_fps = [
            shard_fingerprint(mixed.name, config, faults[start:stop], steps)
            for start, stop in bounds
        ]
    plan = _active_plan(config)
    policy = RetryPolicy(
        max_attempts=config.shard_attempts,
        base_delay=config.retry_backoff,
        seed=config.seed,
    )
    runs: dict[int, ShardRun] = {}
    attempts: dict[int, int] = dict.fromkeys(range(shards), 0)
    quarantined: dict[int, FailureRecord] = {}
    retry_rows: list[dict] = []
    degraded = False
    began = time.monotonic()
    last_beat = began

    if cache is not None:
        for index in range(shards):
            loaded = _load_cached_shard(cache, shard_fps[index], index)
            if loaded is not None:
                runs[index] = loaded
                if progress is not None:
                    progress(loaded)

    pending = [index for index in range(shards) if index not in runs]
    context = _ShardContext(mixed, steps, faults, bounds, config)
    workers = _resolve_shard_workers(config, len(pending))
    use_processes = (
        len(pending) > 1
        and workers > 1
        and "fork" in multiprocessing.get_all_start_methods()
        # Forking a multithreaded parent can leave locks held by
        # threads that do not exist in the child (the classic
        # fork-in-threads deadlock) — e.g. a campaign launched from a
        # run_batch worker thread.  Fall back to in-process execution:
        # identical outcomes, just serial.
        and threading.active_count() == 1
    )

    def record(run: ShardRun) -> None:
        runs[run.index] = run
        if cache is not None:
            shard_fp = shard_fps[run.index]
            _cache_shard(cache, shard_fp, run, shards, mixed.name, plan)
            # A shard that eventually succeeded clears any quarantine
            # evidence a previous run of this campaign left behind.
            failure_path(config.cache_dir, shard_fp).unlink(missing_ok=True)
        if progress is not None:
            # Called after the shard is cached: a callback that aborts
            # the campaign never loses the shard it saw land.
            progress(run)

    def beat(running: Sequence[int]) -> None:
        nonlocal last_beat
        interval = config.heartbeat_interval
        if interval is None or progress is None:
            return
        now = time.monotonic()
        if now - last_beat >= interval:
            last_beat = now
            progress(
                ShardHeartbeat(
                    running=tuple(sorted(running)),
                    completed=len(runs),
                    shards=shards,
                    elapsed=now - began,
                )
            )

    def register_failure(failure: _ShardFailure) -> float | None:
        """Log one failed attempt: backoff delay if retrying, else
        quarantine (returning ``None``)."""
        retrying = policy.should_retry(failure.attempt)
        retry_rows.append(
            {
                "shard": failure.index,
                "attempt": failure.attempt,
                "kind": failure.kind,
                "error": failure.error,
                "retried": retrying,
            }
        )
        if progress is not None:
            progress(
                ShardRetry(
                    index=failure.index,
                    attempt=failure.attempt,
                    error=failure.error,
                    kind=failure.kind,
                    next_attempt=failure.attempt + 1 if retrying else None,
                )
            )
        if retrying:
            return policy.delay(failure.index, failure.attempt)
        start, stop = bounds[failure.index]
        evidence = FailureRecord(
            phase="shard",
            error=failure.error,
            attempts=failure.attempt,
            key=str(failure.index),
            fingerprint=fingerprint,
            detail={"kind": failure.kind, "start": start, "stop": stop},
        )
        quarantined[failure.index] = evidence
        if cache is not None:
            _write_failure(
                config.cache_dir, evidence, shard_fps[failure.index]
            )
        if not config.quarantine:
            raise ShardExecutionError(
                f"shard {failure.index} failed after {failure.attempt} "
                f"attempt(s): {failure.error}"
            )
        return None

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            while index not in runs and index not in quarantined:
                beat((index,))
                attempts[index] += 1
                result = _execute_shard_guarded(
                    context, index, attempts[index], in_process=True
                )
                if isinstance(result, ShardRun):
                    record(result)
                else:
                    delay = register_failure(result)
                    if delay:
                        time.sleep(delay)

    pool_broken = False
    if use_processes:
        global _fork_context
        with _fork_lock:
            _fork_context = context
            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                ) as pool:
                    queue = list(pending)
                    future_of: dict = {}
                    started: dict[int, float] = {}
                    retry_at: list[tuple[float, int]] = []

                    def submit(index: int) -> None:
                        attempt = attempts[index] + 1
                        future = pool.submit(
                            _execute_shard_forked, index, attempt
                        )
                        attempts[index] = attempt
                        started[index] = time.monotonic()
                        future_of[future] = index

                    def fail_in_flight(reason: str, kind: str) -> None:
                        for index in sorted(future_of.values()):
                            started.pop(index, None)
                            register_failure(
                                _ShardFailure(
                                    index=index,
                                    attempt=attempts[index],
                                    error=reason,
                                    kind=kind,
                                )
                            )
                        future_of.clear()

                    while queue or future_of or retry_at:
                        now = time.monotonic()
                        for entry in [e for e in retry_at if e[0] <= now]:
                            retry_at.remove(entry)
                            queue.append(entry[1])
                        # Fill the pool only up to `workers` in-flight
                        # shards, so a submitted shard is a *running*
                        # shard and deadlines measure execution, not
                        # queueing.
                        while queue and len(future_of) < workers:
                            index = queue.pop(0)
                            try:
                                submit(index)
                            except BrokenProcessPool:
                                queue.append(index)
                                pool_broken = True
                                break
                        if pool_broken:
                            fail_in_flight(
                                "BrokenProcessPool: worker pool collapsed",
                                "worker-lost",
                            )
                            break
                        if not future_of:
                            # Only backed-off retries remain: sleep to
                            # the earliest due time (bounded by a tick).
                            next_due = min(e[0] for e in retry_at)
                            time.sleep(max(0.0, min(_TICK, next_due - now)))
                            beat(())
                            continue
                        done, _ = wait(
                            list(future_of),
                            timeout=_TICK,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            index = future_of.pop(future)
                            started.pop(index, None)
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                # The worker behind this shard died
                                # (crash, OOM-kill, chaos kill).  Cost:
                                # one attempt; the shard retries after
                                # the pool is replaced by in-process
                                # execution below.
                                pool_broken = True
                                register_failure(
                                    _ShardFailure(
                                        index=index,
                                        attempt=attempts[index],
                                        error=(
                                            "BrokenProcessPool: shard "
                                            "worker died unexpectedly"
                                        ),
                                        kind="worker-lost",
                                    )
                                )
                                continue
                            if isinstance(result, ShardRun):
                                record(result)
                            else:
                                delay = register_failure(result)
                                if delay is not None:
                                    retry_at.append(
                                        (time.monotonic() + delay, index)
                                    )
                        if pool_broken:
                            fail_in_flight(
                                "BrokenProcessPool: worker pool collapsed",
                                "worker-lost",
                            )
                            break
                        if config.shard_timeout is not None and started:
                            now = time.monotonic()
                            hung = sorted(
                                i
                                for i, t0 in started.items()
                                if now - t0 > config.shard_timeout
                            )
                            if hung:
                                # Kill the workers FIRST: pool shutdown
                                # waits on them, and a hung worker would
                                # wait forever.  Siblings sharing the
                                # pool die as collateral and are retried
                                # in-process alongside the hung shards.
                                for process in list(
                                    getattr(pool, "_processes", {}).values()
                                ):
                                    process.terminate()
                                pool_broken = True
                                for index in sorted(future_of.values()):
                                    started.pop(index, None)
                                    if index in hung:
                                        failure = _ShardFailure(
                                            index=index,
                                            attempt=attempts[index],
                                            error=(
                                                f"shard {index} exceeded "
                                                "its "
                                                f"{config.shard_timeout:.3f}s"
                                                " deadline (worker killed)"
                                            ),
                                            kind="deadline",
                                        )
                                    else:
                                        failure = _ShardFailure(
                                            index=index,
                                            attempt=attempts[index],
                                            error=(
                                                "worker pool torn down "
                                                "while a sibling shard hung"
                                            ),
                                            kind="worker-lost",
                                        )
                                    register_failure(failure)
                                future_of.clear()
                                break
                        beat(sorted(started))
            finally:
                _fork_context = None
        if pool_broken:
            degraded = True
        leftovers = [
            index
            for index in pending
            if index not in runs and index not in quarantined
        ]
        if leftovers:
            run_serial(leftovers)
    else:
        run_serial(pending)

    if plan is not None:
        # The merge chaos site: dying here means every finished shard
        # is already cached, so a resumed run re-executes nothing.
        plan.fire("merge", "merge", in_process=True)

    completed = [index for index in range(shards) if index in runs]
    outcomes: list[InjectionOutcome] = []
    for index in completed:
        outcomes.extend(runs[index].outcomes)

    failed_manifest = [
        {
            "shard": index,
            "start": bounds[index][0],
            "stop": bounds[index][1],
            "attempts": evidence.attempts,
            "kind": evidence.detail.get("kind"),
            "error": evidence.error,
        }
        for index, evidence in sorted(quarantined.items())
    ]

    # Engine diagnostics from the first shard that has any — freshly
    # executed shards first, then cache-carried ones, so even a
    # fully-resumed campaign reports its backend/engines.
    ordered = [runs[i] for i in completed]
    engine_diagnostics = next(
        (r.diagnostics for r in ordered if not r.resumed and r.diagnostics),
        None,
    ) or next((r.diagnostics for r in ordered if r.diagnostics), {})
    resumed = sorted(index for index, run in runs.items() if run.resumed)
    diagnostics = {
        **engine_diagnostics,
        "engine": config.engine,
        "sharded": True,
        "shards": shards,
        "shard_workers": workers if use_processes else 1,
        "process_pool": use_processes,
        "fingerprint": fingerprint,
        "resumed_shards": resumed,
        # The same indices: every shard this run did not execute was
        # served by the cache.  Both names have readers.
        "shards_from_cache": list(resumed),
        "shards_executed": sum(
            1 for run in runs.values() if not run.resumed
        ),
        "retries": retry_rows,
        "quarantined_shards": sorted(quarantined),
        "degraded_to_in_process": degraded,
        "shard_rows": [
            {
                "shard": index,
                "n_faults": bounds[index][1] - bounds[index][0],
                "seconds": round(runs[index].seconds, 6),
                "resumed": runs[index].resumed,
            }
            if index in runs
            else {
                "shard": index,
                "n_faults": bounds[index][1] - bounds[index][0],
                "seconds": 0.0,
                "resumed": False,
                "failed": True,
            }
            for index in range(shards)
        ],
    }
    return CampaignResult(
        outcomes=outcomes,
        diagnostics=diagnostics,
        partial=bool(quarantined),
        failed_shards=failed_manifest,
    )
