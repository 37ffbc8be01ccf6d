"""The workbench facade: sessions and batch runs.

:class:`Workbench` is the repository's front door.  It owns a
:class:`repro.api.CircuitRegistry` and hands out
:class:`TestSession` objects; a session binds the typed configs, runs
named circuits through a :class:`repro.api.Pipeline` and runs many
circuits with :meth:`TestSession.run_batch`.  A session keeps nothing
between runs; a circuit compiles its digital block to BDDs once, on
first use (:meth:`repro.core.MixedSignalCircuit.compiled_digital`).

    from repro.api import Workbench

    wb = Workbench()
    result = wb.session().run("fig4")
    print(result.summary())
    result.to_artifact().save("fig4.json")
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..core import MixedSignalCircuit, TestProgram, program_from_report
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

    Sessions are cheap; hold one per configuration.  A session holds
    only its registry and configs, so it is safe to share across threads
    (the service's job workers share one).
    """

    __test__ = False  # not a pytest test class

    def __init__(
        self,
        registry: CircuitRegistry | None = None,
        config: SessionConfig | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.config = config or SessionConfig()

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
        """
        if isinstance(circuit, MixedSignalCircuit):
            name, mixed = circuit.name, circuit
        else:
            name = self.registry.resolve(circuit)
            mixed = self.circuit(name)
        generator = generator or self.config.generator
        campaign = campaign or self.config.campaign
        atpg = atpg or self.config.atpg
        outcome = Pipeline(stages).run(
            mixed, generator=generator, campaign=campaign, atpg=atpg
        )
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
        """Run one pipeline over many circuits, in input order."""
        return [
            self.run(
                circuit,
                stages=stages,
                generator=generator,
                campaign=campaign,
                atpg=atpg,
            )
            for circuit in circuits
        ]


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
