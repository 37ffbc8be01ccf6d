"""Jobs: persisted campaign submissions and the scheduler that runs them.

A **job** is one submission of campaign work — a :class:`JobSpec`
(circuit name + the typed configs) — tracked through the state machine

    queued ──→ running ──→ done | failed | cancelled
       └──→ cancelled

and persisted as a ``job`` :class:`repro.api.Artifact` after every
mutation, so a restarted queue resumes exactly where the dead process
stopped (``running`` jobs re-queue; with a ``cache_dir`` their cached
shards make the re-run cheap).  Recovery is **capped**: a job that
keeps being found mid-flight after restarts — a poison job that crashes
the process — ends ``failed`` with a durable ``failure`` artifact
instead of looping through recovery forever.  Illegal transitions raise
:class:`JobStateError`.

A job runs once.  Its campaign is deterministic, so an execution that
raises would raise again on a retry: the job moves ``running → failed``
with the error and one :class:`~repro.core.resilience.FailureRecord`
under ``<root>/failures/``.  Resubmitting the spec after a fix runs it
again, resuming from any shards its ``cache_dir`` holds.

Deduplication is fingerprint-first: a spec's :meth:`JobSpec.fingerprint`
covers only the outcome-relevant identity (the same exclusion contract
as :func:`repro.core.sharding.campaign_fingerprint` — split knobs
like the shard count don't change results, so they don't change the
key).  Submitting work whose fingerprint is already **stored** returns
the stored result without executing anything; submitting work an
**active** job already covers returns that job.

:class:`Scheduler` drives execution on a bounded thread pool: each job
regenerates the circuit's analog test program (``sensitivity`` →
``stimulus``), scores it with :func:`repro.core.run_campaign` — the
sharded executor underneath, streaming per-shard progress into the
job's event log — and puts the resulting ``campaign`` artifact into the
content-addressed store under the spec fingerprint.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..api.config import (
    AtpgConfig,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
)
from ..core.atomic_io import read_artifact, write_artifact_atomic
from ..core.cache import ResultCache
from ..core.fingerprint import fingerprint_of
from ..core.resilience import FailureRecord, RetryPolicy

__all__ = [
    "STORE_NAMESPACE",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobStateError",
    "JobSpec",
    "Job",
    "JobQueue",
    "Scheduler",
]

#: every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states earlier releases persisted, and the state each loads as.  A
#: job parked between retry attempts was mid-flight, like ``running``.
_LEGACY_STATES = {"retrying": "running"}

#: states a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: the :class:`~repro.core.cache.ResultCache` namespace the service's
#: store occupies under the service root: finished job artifacts at
#: ``<root>/objects/<fp[:2]>/<fp>.json``, keyed by
#: :meth:`JobSpec.fingerprint`.
STORE_NAMESPACE = "objects"

#: state -> states it may legally move to.
_LEGAL = {
    "queued": frozenset({"running", "cancelled"}),
    "running": frozenset({"done", "failed", "cancelled"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}

#: the generation stages a campaign job runs before scoring: enough to
#: emit the analog test program the campaign executes, nothing more.
_GENERATION_STAGES = ("sensitivity", "stimulus")


def _now() -> float:
    """Wall-clock timestamp for job/event metadata.

    The sole wall-clock read in the service layer: timestamps record
    *when* a job moved, feed nothing that campaigns compute, and are
    excluded from fingerprints — so this is operational metadata, not
    outcome identity.
    """
    return round(time.time(), 6)  # repro-lint: disable=DET001


class JobStateError(ConfigError):
    """An illegal job state transition (or unknown state) was requested."""


class _JobCancelled(Exception):
    """Internal: raised between shards to abort a cancelled running job."""


# ----------------------------------------------------------------------
# the spec: what to run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One unit of submittable work: a circuit and its typed configs.

    ``atpg`` rides along for report-grade flows but is *excluded* from
    the dedup fingerprint: the campaign payload a job produces does not
    depend on it.
    """

    circuit: str
    campaign: CampaignConfig = CampaignConfig()
    generator: GeneratorConfig = GeneratorConfig()
    atpg: AtpgConfig = AtpgConfig()

    def to_document(self) -> dict:
        """JSON-encodable full spec (all config fields, explicit)."""
        return {
            "circuit": self.circuit,
            "campaign": self.campaign.as_dict(),
            "generator": self.generator.as_dict(),
            "atpg": self.atpg.as_dict(),
        }

    @classmethod
    def from_document(cls, document: dict) -> "JobSpec":
        """Build a spec from a (possibly partial) JSON document.

        Missing config sections (or fields) take their defaults; unknown
        sections or fields raise :class:`repro.api.ConfigError` — a
        malformed HTTP submission must fail loudly, not half-apply.
        Config fields retired since a document was written are dropped
        (:meth:`repro.api.CampaignConfig.from_document` and its
        siblings), so job files of earlier releases keep loading.
        """
        if not isinstance(document, dict):
            raise ConfigError(
                f"job spec must be a JSON object, got {type(document).__name__}"
            )
        circuit = document.get("circuit")
        if not circuit or not isinstance(circuit, str):
            raise ConfigError("job spec requires a 'circuit' name")
        known = {"circuit", "campaign", "generator", "atpg"}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigError(
                f"job spec has unknown key(s) {unknown}; known: {sorted(known)}"
            )

        def section(name: str) -> dict:
            value = document.get(name, {})
            if not isinstance(value, dict):
                raise ConfigError(
                    f"job spec section {name!r} must be an object, "
                    f"got {type(value).__name__}"
                )
            return dict(value)

        return cls(
            circuit=circuit,
            campaign=CampaignConfig.from_document(section("campaign")),
            generator=GeneratorConfig.from_document(section("generator")),
            atpg=AtpgConfig.from_document(section("atpg")),
        )

    def fingerprint(self) -> str:
        """Content key of this spec's *outcome-relevant* identity.

        Mirrors :func:`repro.core.sharding.campaign_fingerprint`'s
        exclusion contract: the shard and cache knobs change
        how the work is split, never what it produces, so respecting
        them in the key would defeat deduplication.  ``engine``,
        ``backend`` and ``digital_engine`` are constants: every campaign
        runs on the factorized engine, the ``auto`` backend and the
        compiled digital engine, and keeping the keys keeps stored dedup
        keys valid.
        """
        campaign = self.campaign
        document = {
            "kind": "campaign-job",
            "circuit": self.circuit,
            "campaign": {
                "seed": campaign.seed,
                "faults_per_element": campaign.faults_per_element,
                "severity_range": list(campaign.severity_range),
                "engine": "factorized",
                "backend": "auto",
                "digital_engine": "compiled",
            },
            "generator": self.generator.as_dict(),
        }
        return fingerprint_of(document)


# ----------------------------------------------------------------------
# the job: one spec's trip through the state machine
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One tracked submission (mutate only through :class:`JobQueue`)."""

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = "queued"
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    #: store fingerprint of the result artifact once ``done``.
    artifact: str | None = None
    #: ``done`` without executing: the store already had the result.
    served_from_store: bool = False
    #: executions run: 1 once a worker ran the job, 0 if it never ran
    #: or was served from the store.
    attempts: int = 0
    #: times restart recovery re-queued this job after finding it
    #: mid-flight; capped by the queue's recovery policy (poison jobs).
    recoveries: int = 0
    events: list[dict] = field(default_factory=list)
    #: volatile cancel flag checked between shards (not persisted: a
    #: restart re-queues running jobs anyway).
    cancel_requested: bool = field(default=False, compare=False, repr=False)

    def to_document(self) -> dict:
        return {
            "job_id": self.id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_document(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "artifact": self.artifact,
            "served_from_store": self.served_from_store,
            "attempts": self.attempts,
            "recoveries": self.recoveries,
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_document(cls, document: dict) -> "Job":
        state = _LEGACY_STATES.get(document["state"], document["state"])
        if state not in JOB_STATES:
            raise JobStateError(
                f"job state must be one of {JOB_STATES}, got {state!r}"
            )
        return cls(
            id=document["job_id"],
            spec=JobSpec.from_document(document["spec"]),
            fingerprint=document["fingerprint"],
            state=state,
            created=document.get("created", 0.0),
            started=document.get("started"),
            finished=document.get("finished"),
            error=document.get("error"),
            artifact=document.get("artifact"),
            served_from_store=bool(document.get("served_from_store", False)),
            attempts=int(document.get("attempts", 0)),
            recoveries=int(document.get("recoveries", 0)),
            events=[dict(event) for event in document.get("events", [])],
        )


# ----------------------------------------------------------------------
# the queue: persistence, transitions, events, dedup
# ----------------------------------------------------------------------
class JobQueue:
    """Durable job registry over one service root directory.

    Layout: ``<root>/jobs/<job-id>.json`` (``job`` artifacts, atomic
    writes) next to :attr:`store`, a :class:`~repro.core.cache.ResultCache`
    rooted at ``<root>`` whose :data:`STORE_NAMESPACE` holds finished
    artifacts.  Construction reloads every persisted job
    and **recovers**: jobs found ``running`` (their process died; an
    earlier release's ``retrying`` loads as ``running``) move back to
    ``queued`` so a scheduler can re-execute them — up to
    ``recovery_policy.max_attempts`` times.  A job still
    mid-flight after that many restarts is a poison job (its execution
    is what keeps killing the process): it ends ``failed`` with a
    ``poisoned`` event and a ``failure`` artifact under
    ``<root>/failures/``, instead of crash-looping the service forever.
    """

    def __init__(
        self,
        root: str | Path,
        recovery_policy: RetryPolicy | None = None,
    ):
        self.root = Path(root)
        self.store = ResultCache(self.root)
        self.recovery_policy = (
            recovery_policy
            if recovery_policy is not None
            else RetryPolicy(max_attempts=3)
        )
        self._jobs_dir = self.root / "jobs"
        self._jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._listeners: list = []
        self._sequence = 0
        self._load()

    # -- persistence ----------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self._jobs_dir / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        from ..api.artifact import Artifact

        write_artifact_atomic(
            self._path(job.id),
            Artifact.from_job(job.to_document(), circuit=job.spec.circuit),
        )

    def _write_failure(self, job: Job, record: FailureRecord, tag: str) -> Path:
        """Persist durable failure evidence under ``<root>/failures/``."""
        from ..api.artifact import Artifact

        directory = self.root / "failures"
        directory.mkdir(parents=True, exist_ok=True)
        return write_artifact_atomic(
            directory / f"{job.id}-{tag}.json",
            Artifact.from_failure(record, circuit=job.spec.circuit),
        )

    def _load(self) -> None:
        with self._lock:
            self._load_locked()

    def _load_locked(self) -> None:
        for path in sorted(self._jobs_dir.glob("*.json")):
            artifact = read_artifact(path, kind="job")
            if artifact is None:
                continue  # torn or foreign file: not ours to interpret
            try:
                job = Job.from_document(artifact.payload)
            except (ConfigError, KeyError, TypeError):
                continue
            self._jobs[job.id] = job
            if job.state == "running":
                # The process executing it died; its cached shards (if
                # any) survive, so re-queueing is cheap.  But only
                # up to the recovery cap: a job found mid-flight restart
                # after restart is the thing *causing* the crashes.
                job.recoveries += 1
                if self.recovery_policy.should_retry(job.recoveries):
                    job.state = "queued"
                    job.started = None
                    job.error = None  # a legacy retrying job's last error
                    self._append_event(
                        job, "recovered",
                        note="re-queued after restart",
                        recoveries=job.recoveries,
                    )
                else:
                    job.state = "failed"
                    job.finished = _now()
                    job.error = (
                        f"poison job: found mid-flight after "
                        f"{job.recoveries} restart(s); not re-queueing"
                    )
                    evidence = FailureRecord(
                        phase="recovery",
                        error=job.error,
                        attempts=job.recoveries,
                        key=job.id,
                        fingerprint=job.fingerprint,
                    )
                    self._write_failure(job, evidence, "recovery")
                    self._append_event(
                        job, "poisoned", recoveries=job.recoveries
                    )
                self._persist(job)
        # Continue the id sequence past everything ever persisted, so a
        # restarted queue never re-issues an id (ids sort by submission).
        for job_id in self._jobs:
            try:
                self._sequence = max(self._sequence, int(job_id[1:7]))
            except ValueError:
                self._sequence = max(self._sequence, len(self._jobs))

    # -- events ---------------------------------------------------------
    def _append_event(self, job: Job, kind: str, **data) -> dict:
        event = {
            "seq": len(job.events),
            "ts": _now(),
            "kind": kind,
            **data,
        }
        job.events.append(event)
        self._changed.notify_all()
        return event

    def append_event(self, job_id: str, kind: str, **data) -> dict:
        """Record (and persist) one progress event on a job."""
        with self._lock:
            job = self._get(job_id)
            event = self._append_event(job, kind, **data)
            self._persist(job)
            return event

    def events_since(self, job_id: str, after: int = -1) -> list[dict]:
        """Events with ``seq > after`` — the poll surface."""
        with self._lock:
            return [
                dict(e) for e in self._get(job_id).events if e["seq"] > after
            ]

    def stream(self, job_id: str, timeout: float | None = None):
        """Yield events as they land until the job reaches a terminal
        state (generator surface; ``timeout`` bounds the total wait)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        last = -1
        while True:
            with self._lock:
                job = self._get(job_id)
                fresh = [dict(e) for e in job.events if e["seq"] > last]
                if not fresh:
                    if job.state in TERMINAL_STATES:
                        return
                    remaining = 0.5
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.monotonic())
                        if remaining <= 0:
                            return
                    self._changed.wait(remaining)
                    continue
                last = fresh[-1]["seq"]
            yield from fresh

    # -- lookup ---------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigError(f"unknown job {job_id!r}") from None

    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (ConfigError if unknown)."""
        with self._lock:
            return self._get(job_id)

    def jobs(self, state: str | None = None) -> list[Job]:
        """All jobs in id (= submission) order, optionally by state."""
        if state is not None and state not in JOB_STATES:
            raise JobStateError(
                f"state must be one of {JOB_STATES}, got {state!r}"
            )
        with self._lock:
            return [
                job
                for _, job in sorted(self._jobs.items())
                if state is None or job.state == state
            ]

    def _active_for(self, fingerprint: str) -> Job | None:
        for _, job in sorted(self._jobs.items()):
            if job.fingerprint == fingerprint and job.state not in TERMINAL_STATES:
                return job
        return None

    # -- the state machine ----------------------------------------------
    def transition(self, job_id: str, state: str, **fields) -> Job:
        """Move a job to ``state`` (legality-checked), stamp, persist."""
        if state not in JOB_STATES:
            raise JobStateError(
                f"state must be one of {JOB_STATES}, got {state!r}"
            )
        with self._lock:
            job = self._get(job_id)
            if state not in _LEGAL[job.state]:
                raise JobStateError(
                    f"job {job_id} cannot move {job.state!r} -> {state!r}"
                )
            job.state = state
            now = _now()
            if state == "running":
                job.started = now
            if state in TERMINAL_STATES:
                job.finished = now
            for name, value in fields.items():
                if not hasattr(job, name):
                    raise ConfigError(f"job has no field {name!r}")
                setattr(job, name, value)
            self._append_event(job, state)
            self._persist(job)
            return job

    # -- submission -----------------------------------------------------
    def add_listener(self, callback) -> None:
        """``callback(job)`` fires after each genuinely new submission."""
        self._listeners.append(callback)

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Register work; returns ``(job, deduplicated)``.

        Dedup order: an *active* job already covering the fingerprint
        wins first (one execution, many submitters), then a *stored*
        result (job is born ``done`` and serves the artifact), then a
        fresh ``queued`` job.
        """
        fingerprint = spec.fingerprint()
        with self._lock:
            active = self._active_for(fingerprint)
            if active is not None:
                return active, True
            self._sequence += 1
            job_id = f"j{self._sequence:06d}-{fingerprint[:8]}"
            if self.store.has_artifact(STORE_NAMESPACE, fingerprint):
                job = Job(
                    id=job_id,
                    spec=spec,
                    fingerprint=fingerprint,
                    state="done",
                    created=_now(),
                    finished=_now(),
                    artifact=fingerprint,
                    served_from_store=True,
                )
                self._append_event(job, "submitted")
                self._append_event(job, "done", served_from_store=True)
                self._jobs[job_id] = job
                self._persist(job)
                return job, True
            job = Job(
                id=job_id,
                spec=spec,
                fingerprint=fingerprint,
                created=_now(),
            )
            self._append_event(job, "submitted")
            self._jobs[job_id] = job
            self._persist(job)
        for callback in list(self._listeners):
            callback(job)
        return job, False

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate when ``queued``, best-effort (between
        shards) when ``running``; an error once terminal."""
        with self._lock:
            job = self._get(job_id)
            if job.state == "queued":
                return self.transition(job_id, "cancelled")
            if job.state == "running":
                job.cancel_requested = True
                self._append_event(job, "cancel-requested")
                self._persist(job)
                return job
            raise JobStateError(
                f"job {job_id} is already {job.state!r}; cannot cancel"
            )


# ----------------------------------------------------------------------
# the scheduler: bounded workers driving the sharded executor
# ----------------------------------------------------------------------
class Scheduler:
    """Executes a :class:`JobQueue`'s work on a bounded thread pool.

    One scheduler per service process.  Workers are *stateless*: every
    fact a job run produces lives in the shared store/queue directory,
    which is what lets any number of service processes point at the
    same root and share results ("stateless workers + shared store").
    """

    def __init__(
        self,
        queue: JobQueue,
        workbench=None,
        workers: int = 2,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        from ..api.session import Workbench

        self.queue = queue
        self.workbench = workbench if workbench is not None else Workbench()
        self.workers = workers
        self._session = self.workbench.session()
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        #: engine-invocation counters: how many campaigns were actually
        #: computed vs served from the content-addressed store.  The
        #: dedup acceptance check ("resubmission must not recompute")
        #: reads these.
        self.executions = 0
        self.store_hits = 0

    # ------------------------------------------------------------------
    def resolve_spec(self, spec: JobSpec) -> JobSpec:
        """Canonicalize and validate the spec's circuit name.

        Aliases collapse to the registry's canonical name *before*
        fingerprinting, so ``fig4`` and ``fig4-mixed`` deduplicate to
        the same work; non-``mixed`` circuits are rejected here, at
        submission, rather than failing later inside a worker.
        """
        registry = self.workbench.registry
        record = registry.get(spec.circuit)
        if record.kind != "mixed":
            raise ConfigError(
                f"circuit {record.name!r} has kind {record.kind!r}; "
                "campaign jobs need a 'mixed' circuit"
            )
        if record.name != spec.circuit:
            spec = JobSpec(
                circuit=record.name,
                campaign=spec.campaign,
                generator=spec.generator,
                atpg=spec.atpg,
            )
        return spec

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Validate, enqueue (or dedup) and — when running — dispatch."""
        job, deduplicated = self.queue.submit(self.resolve_spec(spec))
        if not deduplicated:
            self._dispatch(job)
        return job, deduplicated

    # ------------------------------------------------------------------
    def start(self) -> "Scheduler":
        """Spin up the worker pool and drain anything already queued."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-service",
                )
        for job in self.queue.jobs(state="queued"):
            self._dispatch(job)
        return self

    def stop(self, wait: bool = True) -> None:
        """Shut the pool down (running jobs finish when ``wait``)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def _dispatch(self, job: Job) -> None:
        with self._lock:
            pool = self._pool
        if pool is not None:
            pool.submit(self._run_job, job.id)

    def stats(self) -> dict:
        """Scheduler counters (the dedup proof lives here)."""
        with self._lock:
            return {
                "workers": self.workers,
                "running": self._pool is not None,
                "executions": self.executions,
                "store_hits": self.store_hits,
            }

    # ------------------------------------------------------------------
    def _run_job(self, job_id: str) -> None:
        queue = self.queue
        try:
            job = queue.get(job_id)
            if job.state != "queued":
                return  # cancelled (or claimed) before a worker got to it
            queue.transition(job_id, "running")
        except ConfigError:
            return
        try:
            store = queue.store
            cached = store.get_artifact(STORE_NAMESPACE, job.fingerprint)
            if cached is not None:
                # Another process filled the store since submission.
                with self._lock:
                    self.store_hits += 1
                queue.transition(
                    job_id, "done",
                    artifact=job.fingerprint, served_from_store=True,
                )
                return
            with self._lock:
                self.executions += 1
            artifact = self._execute(job)
            store.put_artifact(STORE_NAMESPACE, job.fingerprint, artifact)
            queue.transition(
                job_id, "done", artifact=job.fingerprint, attempts=1
            )
        except _JobCancelled:
            queue.transition(job_id, "cancelled", attempts=1)
        except Exception as error:  # noqa: BLE001 — a job must never kill its worker
            evidence = FailureRecord.from_exception(
                "job", error, key=job_id, fingerprint=job.fingerprint
            )
            queue._write_failure(job, evidence, "job")
            queue.transition(
                job_id, "failed", error=evidence.error, attempts=1
            )

    def _execute(self, job: Job):
        """Generate the program, score it, wrap the campaign artifact."""
        from ..api.artifact import Artifact
        from ..core import run_campaign

        queue, spec = self.queue, job.spec
        mixed = self._session.circuit(spec.circuit)
        generated = self._session.run(
            mixed,
            stages=_GENERATION_STAGES,
            generator=spec.generator,
            campaign=spec.campaign,
            atpg=spec.atpg,
        )
        testable = sum(1 for t in generated.report.analog_tests if t.testable)
        queue.append_event(
            job.id, "generated",
            testable_elements=testable,
            seconds=round(generated.total_seconds, 6),
        )

        def on_shard(event) -> None:
            if queue.get(job.id).cancel_requested:
                raise _JobCancelled()
            queue.append_event(
                job.id, "shard",
                shard=event.index,
                n_faults=len(event.outcomes),
                seconds=round(event.seconds, 6),
                resumed=event.resumed,
            )

        if queue.get(job.id).cancel_requested:
            raise _JobCancelled()
        start = time.perf_counter()
        result = run_campaign(
            mixed, generated.report, config=spec.campaign, progress=on_shard
        )
        seconds = time.perf_counter() - start
        queue.append_event(
            job.id, "campaign",
            n_injected=result.n_injected,
            detection_rate=round(result.detection_rate(), 6),
            seconds=round(seconds, 6),
        )
        return Artifact.from_campaign(
            result,
            circuit=mixed.name,
            meta={
                "service": {
                    "job_id": job.id,
                    "fingerprint": job.fingerprint,
                    "spec": spec.to_document(),
                    "seconds": round(seconds, 6),
                    "diagnostics": result.diagnostics or {},
                }
            },
        )
