"""The workbench facade: sessions, batch fan-out, shared BDD reuse.

:class:`Workbench` is the repository's front door.  It owns a
:class:`repro.api.CircuitRegistry` and hands out
:class:`TestSession` objects; a session binds the typed configs, runs
named circuits through a :class:`repro.api.Pipeline`, fans out over many
circuits with :meth:`TestSession.run_batch`, and pools compiled circuit
BDDs so repeated flows over the same digital block never recompile it.

    from repro.api import Workbench

    wb = Workbench()
    result = wb.session().run("fig4")
    print(result.summary())
    result.to_artifact().save("fig4.json")
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..atpg import CircuitBdd
from ..core import MixedSignalCircuit, TestProgram, program_from_report
from ..core.fingerprint import netlist_fingerprint
from .artifact import Artifact
from .config import (
    AtpgConfig,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    SessionConfig,
    UnknownNameError,
)
from .pipeline import FULL_STAGES, Pipeline, PipelineOutcome
from .registry import CircuitRegistry, default_registry

__all__ = ["SessionResult", "ExperimentRun", "TestSession", "Workbench"]


@dataclass
class SessionResult:
    """One circuit's trip through the pipeline, plus provenance."""

    name: str
    outcome: PipelineOutcome
    configs: dict = field(default_factory=dict)

    @property
    def report(self):
        """The consolidated :class:`repro.core.MixedTestReport`."""
        return self.outcome.report

    @property
    def campaign(self):
        """The campaign result (``None`` unless the stage ran)."""
        return self.outcome.campaign

    @property
    def deviations(self):
        """The deviation matrix (``None`` unless the stage ran)."""
        return self.outcome.deviations

    @property
    def timings(self):
        """Per-stage :class:`repro.api.pipeline.StageTiming` list."""
        return self.outcome.timings

    @property
    def total_seconds(self) -> float:
        """Summed stage wall-clock time."""
        return self.outcome.total_seconds

    def summary(self) -> str:
        """Report recap plus campaign line (when present) and timings."""
        lines = [self.report.summary()]
        if self.campaign is not None:
            lines.append(f"campaign: {self.campaign.summary()}")
        lines.append(self.outcome.timing_table())
        return "\n".join(lines)

    def program(self) -> TestProgram:
        """The emitted, serializable test program."""
        return program_from_report(self.report)

    def to_artifact(self) -> Artifact:
        """The run as one versioned ``report`` artifact."""
        meta = {
            "registry_name": self.name,
            "stages": list(self.outcome.stages),
            "timings": {
                t.stage: round(t.seconds, 6) for t in self.timings
            },
            "configs": self.configs,
        }
        return Artifact.from_report(
            self.report, campaign=self.campaign, meta=meta
        )

    def program_artifact(self) -> Artifact:
        """The emitted test program as a ``program`` artifact."""
        return Artifact.from_program(
            self.program(), meta={"registry_name": self.name}
        )


@dataclass
class ExperimentRun:
    """One executed experiment: raw result, rendering, wall-clock."""

    name: str
    result: object
    rendered: str
    seconds: float

    def to_artifact(self) -> Artifact:
        """The rendering as an ``experiment`` artifact.

        Experiments whose result has a ``to_document()`` also carry every
        reproduced number, exactly, under ``payload["document"]``.
        """
        artifact = Artifact.from_experiment(
            self.name, self.rendered, self.seconds
        )
        to_document = getattr(self.result, "to_document", None)
        if to_document is not None:
            artifact.payload["document"] = to_document()
        return artifact


class TestSession:
    """A configured driver over the registry's circuits.

    Sessions are cheap; hold one per configuration.  A session is safe
    to share across the threads of its own :meth:`run_batch` — compiled
    digital-block BDDs are pooled with exclusive checkout, so a block
    compiled by one run is reused by later runs (never concurrently).
    """

    __test__ = False  # not a pytest test class

    def __init__(
        self,
        registry: CircuitRegistry | None = None,
        config: SessionConfig | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.config = config or SessionConfig()
        self._lock = threading.Lock()
        self._bdd_pool: dict[tuple[str, str], CircuitBdd] = {}
        self._runs = 0
        self._bdd_hits = 0
        self._bdd_misses = 0

    # ------------------------------------------------------------------
    def circuit(self, name: str) -> MixedSignalCircuit:
        """Build a fresh mixed circuit registered under ``name``."""
        spec = self.registry.get(name)
        if spec.kind != "mixed":
            raise ConfigError(
                f"circuit {spec.name!r} has kind {spec.kind!r}; sessions "
                "drive 'mixed' circuits (use the registry directly for "
                "analog/digital blocks)"
            )
        return spec.build()

    # -- BDD pool: exclusive checkout / check-in ------------------------
    def _checkout_bdd(self, mixed: MixedSignalCircuit, ordering: str) -> None:
        # Keyed by the netlist's content digest, computed now: it pools
        # across instances of the same netlist, and an edited netlist
        # never checks out a BDD of its old content.
        digest = netlist_fingerprint(mixed.digital)
        # The generator stages compile with the default heuristic while
        # the ATPG stage may use another; check out both slots.
        for slot in dict.fromkeys(("fanin", ordering)):
            key = (digest, slot)
            with self._lock:
                cached = self._bdd_pool.pop(key, None)
                if cached is None:
                    self._bdd_misses += 1
                else:
                    self._bdd_hits += 1
            if cached is not None:
                mixed._cbdd[slot] = cached

    def _checkin_bdd(self, mixed: MixedSignalCircuit) -> None:
        # Pool every ordering the run ended up compiling (or borrowing).
        # Ownership transfers: the entries are *removed* from the circuit
        # so a caller-held instance can never share a (non-thread-safe)
        # BddManager with a future checkout from another thread.  Each
        # entry is filed under the digest captured when *it* compiled —
        # if the run mutated the netlist afterwards, the stale BDD is
        # pooled under the old digest, never served for the new one.
        with self._lock:
            while mixed._cbdd:
                ordering, cbdd = mixed._cbdd.popitem()
                self._bdd_pool[(cbdd.fingerprint, ordering)] = cbdd

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: str | MixedSignalCircuit,
        stages: Sequence[str] | None = None,
        generator: GeneratorConfig | None = None,
        campaign: CampaignConfig | None = None,
        atpg: AtpgConfig | None = None,
    ) -> SessionResult:
        """Run one circuit (by registry name or instance) through a pipeline.

        Per-call configs override the session's; ``stages`` defaults to
        :data:`~repro.api.pipeline.DEFAULT_STAGES` (no deviation matrix,
        no campaign).

        Registry-name runs flow through the session's compiled-BDD pool.
        A caller-provided instance runs outside the pool: the caller may
        hold references to its compiled BDDs, and pooling those would
        let another thread mutate a BDD manager the caller still uses.
        """
        if isinstance(circuit, MixedSignalCircuit):
            name, mixed, pooled = circuit.name, circuit, False
        else:
            name = self.registry.resolve(circuit)
            mixed = self.circuit(name)
            pooled = True
        generator = generator or self.config.generator
        campaign = campaign or self.config.campaign
        atpg = atpg or self.config.atpg
        pipeline = Pipeline(stages)
        if pooled:
            self._checkout_bdd(mixed, atpg.ordering)
        try:
            outcome = pipeline.run(
                mixed, generator=generator, campaign=campaign, atpg=atpg
            )
        finally:
            if pooled:
                self._checkin_bdd(mixed)
        with self._lock:
            self._runs += 1
        return SessionResult(
            name=name,
            outcome=outcome,
            configs={
                "generator": generator.as_dict(),
                "campaign": campaign.as_dict(),
                "atpg": atpg.as_dict(),
            },
        )

    def run_batch(
        self,
        circuits: Sequence[str | MixedSignalCircuit],
        stages: Sequence[str] | None = None,
        generator: GeneratorConfig | None = None,
        campaign: CampaignConfig | None = None,
        atpg: AtpgConfig | None = None,
    ) -> list[SessionResult]:
        """Fan one pipeline out over many circuits concurrently.

        ``SessionConfig.max_workers`` sizes the thread pool.  Results
        come back in input order; the first failure is re-raised after
        all workers finish.  Compiled BDDs flow through the pool,
        so batches with repeated digital blocks amortize compilation.
        """
        if not circuits:
            return []
        Pipeline(stages)  # validate stage names before spawning workers
        instance_ids = [
            id(c) for c in circuits if isinstance(c, MixedSignalCircuit)
        ]
        if len(set(instance_ids)) != len(instance_ids):
            raise ConfigError(
                "run_batch received the same MixedSignalCircuit instance "
                "more than once; pass registry names (or distinct "
                "instances) so each worker drives its own circuit"
            )
        workers = self.config.max_workers
        if workers is None:
            workers = os.cpu_count() or 4
        workers = min(workers, len(circuits))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-batch"
        ) as pool:
            futures = [
                pool.submit(
                    self.run,
                    circuit,
                    stages=stages,
                    generator=generator,
                    campaign=campaign,
                    atpg=atpg,
                )
                for circuit in circuits
            ]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Session counters (runs, BDD pool hits/misses/size)."""
        with self._lock:
            return {
                "runs": self._runs,
                "bdd_pool_hits": self._bdd_hits,
                "bdd_pool_misses": self._bdd_misses,
                "bdd_pool_size": len(self._bdd_pool),
            }


class Workbench:
    """The one front door: circuits, sessions, experiments, artifacts."""

    def __init__(self, registry: CircuitRegistry | None = None):
        self.registry = registry if registry is not None else default_registry()
        self._default_session: TestSession | None = None

    # ------------------------------------------------------------------
    def session(self, config: SessionConfig | None = None, **configs) -> TestSession:
        """A new session; keywords build a :class:`SessionConfig`.

        ``wb.session(generator=GeneratorConfig(tolerance=0.1))`` is
        shorthand for passing a full config bundle.
        """
        if config is not None and configs:
            raise ConfigError("pass either a SessionConfig or keywords, not both")
        if config is None:
            valid = {f.name for f in dataclasses.fields(SessionConfig)}
            unknown = sorted(set(configs) - valid)
            if unknown:
                raise ConfigError(
                    f"unknown session keyword(s) {unknown}; "
                    f"valid: {', '.join(sorted(valid))}"
                )
            config = SessionConfig(**configs)
        return TestSession(self.registry, config)

    def _session(self) -> TestSession:
        if self._default_session is None:
            self._default_session = TestSession(self.registry)
        return self._default_session

    # -- one-shot conveniences -----------------------------------------
    def generate(
        self,
        circuit: str | MixedSignalCircuit,
        stages: Sequence[str] | None = None,
        **kwargs,
    ) -> SessionResult:
        """Generate a test program for a circuit via the default session."""
        return self._session().run(circuit, stages=stages, **kwargs)

    def campaign(
        self,
        circuit: str | MixedSignalCircuit,
        campaign: CampaignConfig | None = None,
        **kwargs,
    ) -> SessionResult:
        """Full flow *including* the scoring campaign (and deviations)."""
        return self._session().run(
            circuit, stages=FULL_STAGES, campaign=campaign, **kwargs
        )

    # -- experiments ----------------------------------------------------
    def list_experiments(self) -> list[str]:
        """Names accepted by :meth:`run_experiment`."""
        from ..experiments import runner

        return list(runner.EXPERIMENTS)

    def run_experiment(self, name: str) -> ExperimentRun:
        """Run one of the paper's table/figure regenerators by name."""
        from ..experiments import runner

        try:
            module = runner.EXPERIMENTS[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown experiment {name!r}; "
                f"known: {', '.join(runner.EXPERIMENTS)}"
            ) from None
        start = time.perf_counter()
        result = module.run()
        seconds = time.perf_counter() - start
        return ExperimentRun(
            name=name,
            result=result,
            rendered=result.render(),
            seconds=seconds,
        )

    # -- discovery ------------------------------------------------------
    def list_circuits(self, kind: str | None = None):
        """Registered :class:`repro.api.CircuitSpec` rows."""
        return self.registry.specs(kind)
