"""Deterministic sharded campaign execution, resumable through the cache.

A fault-injection campaign is embarrassingly parallel *across faults*:
every :class:`~repro.analog.faultsim.InjectionOutcome` depends only on
its own :class:`~repro.analog.faultsim.FaultSpec`, the circuit and the
program steps — never on another fault.  This module splits one
campaign into ``N`` shards, the units a campaign is cached and resumed
by, and merges them back into a single
:class:`~repro.analog.faultsim.CampaignResult` that is byte-identical to
the unsharded run.

Seed-splitting contract
-----------------------
The fault population is drawn **once** from ``random.Random(config.seed)``
— exactly as the unsharded path does — and partitioned by index into
contiguous balanced slices (:func:`shard_bounds`).  Shards never
re-draw: no fault can be drawn twice or skipped, whatever the shard
count, and concatenating the per-shard outcome lists in shard order
*is* the unsharded outcome list.

Execution
---------
Shards run serially in the caller's process, in shard order, all on
one :class:`~repro.analog.faultsim.PreparedProgram`: the solver, the LU
factorization per stimulus frequency and the good-circuit responses are
built once per campaign, by the first shard that executes, so a fully
cached re-run builds nothing.  Each shard's gain memo and update
directions are its own and released when it ends, and its diagnostics
count its own solves, so a shard's result does not depend on which
shards ran before it.

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

Failure
-------
A shard whose execution raises stops the campaign with
:class:`ShardExecutionError`, which names the shard and its fault
slice and carries the original exception as ``__cause__``.  Shards are
deterministic, so running one again in process would fail the same way;
recovery is resume instead.  Every shard before the failing one is
already cached, so a re-run with the same ``cache_dir`` executes only
the shards that did not finish.  A torn cache entry (a crash
mid-write) reads as a miss and its shard simply re-executes.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..analog.faultsim import (
    CampaignResult,
    FactorizedEngine,
    FaultSpec,
    InjectionOutcome,
    PreparedProgram,
)
from ..api.config import CampaignConfig, ConfigError
from .fingerprint import canonical_json, fingerprint_with_encoded

__all__ = [
    "FINGERPRINT_EXCLUDED_FIELDS",
    "SHARD_NAMESPACE",
    "ShardRun",
    "ShardExecutionError",
    "shard_bounds",
    "campaign_fingerprint",
    "shard_fingerprint",
    "run_sharded_campaign",
]

#: :class:`repro.core.cache.ResultCache` namespace shard results live
#: under when :attr:`~repro.api.config.CampaignConfig.cache_dir` is set.
SHARD_NAMESPACE = "campaign-shard"

#: :class:`~repro.api.config.CampaignConfig` fields deliberately OUTSIDE
#: campaign fingerprints (and the service layer's dedup key, which
#: mirrors this contract): each changes how the work is split or
#: where it persists — never which outcomes it produces — so
#: respecting them in the key would invalidate cached shards and defeat
#: dedup on re-runs that only retune the split.  Every other field MUST
#: be read by
#: :func:`campaign_fingerprint`; the FPR002 lint rule
#: (:mod:`repro.devtools.lint`) enforces both directions, so a new
#: config knob cannot silently leak into or out of dedup identity.
FINGERPRINT_EXCLUDED_FIELDS = frozenset(
    {
        "shards",           # partitioning of the population
        "cache_dir",        # where shard results persist, not what
                            # they are
    }
)


class ShardExecutionError(RuntimeError):
    """A shard's execution raised; ``__cause__`` is the original error.

    The shards before it are cached (with a ``cache_dir``), so a re-run
    on the same cache resumes from the failing shard.
    """


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


def _steps_json(steps: Sequence) -> str:
    """The canonical encoding of the program steps every key hashes."""
    return canonical_json([_step_document(step) for step in steps])


def campaign_fingerprint(
    circuit_name: str,
    config: CampaignConfig,
    faults: Sequence[FaultSpec],
    steps: Sequence = (),
    *,
    steps_json: str | None = None,
) -> str:
    """Digest identifying one campaign's outcome-relevant identity.

    Covers the circuit name, the drawn fault population (element,
    deviation, severity — the floats verbatim), the test-program steps
    the faults run against (stimulus and digital vector per step — a
    regenerated program must never be scored with another program's
    results) and every config field that can influence an outcome.
    Shard counts and the cache directory are deliberately *excluded*:
    outcomes are independent of how the work is split or persisted.  ``engine``, ``backend`` and
    ``digital_engine`` are constants naming what every campaign runs on
    (the factorized engine, the ``auto`` backend, the compiled digital
    engine); they keep the digests of earlier releases, whose configs
    carried them.

    ``steps_json``, when given, is ``steps`` already encoded (see
    :func:`_steps_json`), so a driver keying many documents on one
    program encodes it once.
    """
    document = {
        "circuit": circuit_name,
        "seed": config.seed,
        "faults_per_element": config.faults_per_element,
        "severity_range": list(config.severity_range),
        "engine": "factorized",
        "backend": "auto",
        "digital_engine": "compiled",
        "faults": [[f.element, f.deviation, f.severity] for f in faults],
    }
    if steps_json is None:
        steps_json = _steps_json(steps)
    return fingerprint_with_encoded(document, "steps", steps_json)


def shard_fingerprint(
    circuit_name: str,
    config: CampaignConfig,
    faults: Sequence[FaultSpec],
    steps: Sequence = (),
    *,
    steps_json: str | None = None,
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
    ``steps_json`` is as in :func:`campaign_fingerprint`.
    """
    document = {
        "kind": "campaign-shard",
        "circuit": circuit_name,
        "engine": "factorized",
        "backend": "auto",
        "digital_engine": "compiled",
        "faults": [[f.element, f.deviation, f.severity] for f in faults],
    }
    if steps_json is None:
        steps_json = _steps_json(steps)
    return fingerprint_with_encoded(document, "steps", steps_json)


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


def _execute_shard(
    program: PreparedProgram, faults: Sequence[FaultSpec], index: int
) -> ShardRun:
    """Run one shard's fault slice on the campaign's shared program.

    The first shard with faults prepares ``program`` (its ``seconds``
    include that); an empty shard prepares nothing.
    """
    begin = time.perf_counter()
    outcomes, diagnostics = program.run(list(faults))
    return ShardRun(
        index=index,
        outcomes=outcomes,
        seconds=time.perf_counter() - begin,
        diagnostics=diagnostics,
    )


# ----------------------------------------------------------------------
# shard persistence: the result cache
# ----------------------------------------------------------------------
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
    cache, fingerprint: str, run: ShardRun, shards: int, circuit_name: str
) -> None:
    """Publish one completed shard into the content-addressed cache."""
    artifact = _shard_artifact(run, shards, fingerprint, circuit_name)
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
def run_sharded_campaign(
    mixed,
    steps: Sequence,
    faults: Sequence[FaultSpec],
    config: CampaignConfig,
    progress=None,
) -> CampaignResult:
    """Execute a pre-drawn fault population in deterministic shards.

    ``faults`` must be the population drawn once from
    ``random.Random(config.seed)`` (see :func:`repro.core.campaign.
    draw_population`); this function never draws.  Shards run serially in
    the caller's process and their outcomes are merged in fault order,
    so the returned result equals the unsharded run of the same
    population exactly.  With ``config.cache_dir`` set, completed
    shards are cached as ``campaign-shard`` artifacts and cached shards
    are served instead of re-executed.

    A shard whose execution raises stops the campaign with
    :class:`ShardExecutionError`; the shards before it are already
    cached, so a re-run on the same ``cache_dir`` resumes there.

    ``progress``, when given, is called with each completed (or
    cache-served) :class:`ShardRun` the moment it lands — the streaming
    hook the service layer's job events ride on.  An exception raised by
    the callback propagates unwrapped and aborts the campaign (completed
    shards stay cached), which is how a job cancellation interrupts a
    run between shards.
    """
    shards = config.shards
    bounds = shard_bounds(len(faults), shards)
    steps_json = _steps_json(steps)
    fingerprint = campaign_fingerprint(
        mixed.name, config, faults, steps_json=steps_json
    )
    cache = None
    shard_fps: list[str] = []
    if config.cache_dir is not None:
        # Imported lazily so campaigns without a cache never touch it.
        from .cache import ResultCache

        cache = ResultCache(config.cache_dir)
        shard_fps = [
            shard_fingerprint(
                mixed.name, config, faults[start:stop], steps_json=steps_json
            )
            for start, stop in bounds
        ]
    runs: dict[int, ShardRun] = {}

    if cache is not None:
        for index in range(shards):
            loaded = _load_cached_shard(cache, shard_fps[index], index)
            if loaded is not None:
                runs[index] = loaded
                if progress is not None:
                    progress(loaded)

    # Prepared by the first shard that executes; never, when every
    # shard is cached.
    program = PreparedProgram(mixed, steps)
    for index, (start, stop) in enumerate(bounds):
        if index in runs:
            continue
        try:
            run = _execute_shard(program, faults[start:stop], index)
        except Exception as error:
            raise ShardExecutionError(
                f"shard {index} (faults [{start}, {stop})) failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        runs[index] = run
        if cache is not None:
            _cache_shard(cache, shard_fps[index], run, shards, mixed.name)
        if progress is not None:
            # Called after the shard is cached: a callback that aborts
            # the campaign never loses the shard it saw land.
            progress(run)

    ordered = [runs[index] for index in range(shards)]
    outcomes: list[InjectionOutcome] = []
    for run in ordered:
        outcomes.extend(run.outcomes)

    # Engine diagnostics from the first shard that has any — freshly
    # executed shards first, then cache-carried ones, so even a
    # fully-resumed campaign reports its backend/engines.
    engine_diagnostics = next(
        (r.diagnostics for r in ordered if not r.resumed and r.diagnostics),
        None,
    ) or next((r.diagnostics for r in ordered if r.diagnostics), {})
    diagnostics = {
        **engine_diagnostics,
        "engine": FactorizedEngine.name,
        "sharded": True,
        "shards": shards,
        "fingerprint": fingerprint,
        # Every shard this run did not execute was served by the cache.
        "shards_from_cache": [run.index for run in ordered if run.resumed],
        "shards_executed": sum(1 for run in ordered if not run.resumed),
        "shard_rows": [
            {
                "shard": run.index,
                "n_faults": stop - start,
                "seconds": round(run.seconds, 6),
                "resumed": run.resumed,
            }
            for run, (start, stop) in zip(ordered, bounds)
        ],
    }
    return CampaignResult(outcomes=outcomes, diagnostics=diagnostics)
