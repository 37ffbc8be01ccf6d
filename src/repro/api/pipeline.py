"""Composable test-generation pipeline with per-stage timing.

The paper's flow decomposes into named stages —

    sensitivity → deviation → stimulus → conversion → atpg → campaign

— each a function over a shared :class:`PipelineContext`.  A
:class:`Pipeline` is an ordered subset of those stages; running one
yields a :class:`PipelineOutcome` carrying the consolidated
:class:`repro.core.MixedTestReport`, the optional campaign result, the
optional deviation matrix, and a wall-clock timing per stage.

Stage semantics:

* ``sensitivity`` — the analog block's full sensitivity matrix;
* ``deviation``   — the worst-case deviation matrix (Example 1 / Table 3);
    when present, the generator runs the paper's *case 2* flow (reuse the
    matrix, try parameters tightest-E.D. first);
* ``stimulus``    — activate-and-propagate test recipes per analog element;
* ``conversion``  — comparator observability + constrained ladder coverage;
* ``atpg``        — digital-block stuck-at ATPG under the thermometer
    constraint (plus the stand-alone run when configured);
* ``campaign``    — seeded fault injection scoring the emitted program
    (requires ``stimulus``); executes on
    :class:`repro.analog.faultsim.FactorizedEngine`, the
    LU/Sherman–Morrison fast path.

With :attr:`repro.api.CampaignConfig.cache_dir` set, the generation
stages (all but ``campaign``, which caches its own shards) share one
entry in the ``pipeline-stage`` namespace of that
:class:`repro.core.cache.ResultCache`: the report and deviation matrix
they produce, keyed by the circuit's content, both configs, the
generation stages run and :data:`_GENERATION_VERSION`.  A warm re-run
serves every generation stage from it for a few digests and one lookup;
any edit recomputes them all.  Without a ``cache_dir`` no digest is
computed and nothing touches the disk.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..analog import DeviationMatrix, deviation_matrix
from ..atpg import run_atpg
from ..conversion import constrained_ladder_coverage
from ..core import (
    CampaignResult,
    MixedSignalCircuit,
    MixedSignalTestGenerator,
    MixedTestReport,
    run_campaign,
)
from ..core.cache import ResultCache
from ..core.fingerprint import (
    analog_fingerprint,
    fingerprint_of,
    netlist_fingerprint,
)
from .artifact import Artifact, _report_document, _report_from_document
from .config import AtpgConfig, CampaignConfig, ConfigError, GeneratorConfig

__all__ = [
    "STAGE_ORDER",
    "DEFAULT_STAGES",
    "FULL_STAGES",
    "STAGE_NAMESPACE",
    "StageTiming",
    "PipelineContext",
    "PipelineOutcome",
    "Pipeline",
]

#: canonical stage order; every pipeline is a subsequence of this.
STAGE_ORDER = (
    "sensitivity",
    "deviation",
    "stimulus",
    "conversion",
    "atpg",
    "campaign",
)

#: the paper's generation flow: recipes, comparator observability and
#: conversion coverage, and the digital ATPG runs (no deviation matrix,
#: no campaign).
DEFAULT_STAGES = ("sensitivity", "stimulus", "conversion", "atpg")

#: everything, including the deviation matrix and the scoring campaign.
FULL_STAGES = STAGE_ORDER

#: stages that cannot run unless another stage ran before them.
_REQUIRES = {"campaign": "stimulus"}

#: result-cache namespace the generation outputs persist under.
STAGE_NAMESPACE = "pipeline-stage"

#: output-schema salt of the generation entry, part of its key.  Bump it
#: in any change that intentionally changes a generation stage's output,
#: so caches written before the change are never served after it.
_GENERATION_VERSION = 1


@dataclass
class StageTiming:
    """Wall-clock cost of one executed stage (or sub-stage).

    ``backend`` names the engine the stage's solves actually ran on,
    when the stage reports one — the linear-system backend for the
    campaign stage, the digital fault-simulation engine for the atpg
    stage; ``None`` otherwise.  ``parent`` is ``None`` for top-level
    stages; per-shard campaign rows carry ``parent="campaign"`` and are
    informational — they are excluded from the summed total (their
    wall-clock overlaps the parent stage's, and shards run
    concurrently).  ``cached`` marks a generation stage served from the
    ``pipeline-stage`` cache instead of computed.
    """

    stage: str
    seconds: float
    backend: str | None = None
    parent: str | None = None
    cached: bool = False


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    mixed: MixedSignalCircuit
    generator: MixedSignalTestGenerator
    atpg_config: AtpgConfig
    campaign_config: CampaignConfig
    report: MixedTestReport
    deviations: DeviationMatrix | None = None
    campaign: CampaignResult | None = None

    @property
    def generator_config(self) -> GeneratorConfig:
        """The generator's active configuration."""
        return self.generator.config


def _stage_sensitivity(ctx: PipelineContext) -> None:
    ctx.generator.sensitivities  # noqa: B018 — builds and caches the matrix


def _stage_deviation(ctx: PipelineContext) -> None:
    cfg = ctx.generator_config
    matrix = deviation_matrix(
        ctx.mixed.analog,
        ctx.mixed.parameters,
        tolerance=cfg.tolerance,
        element_tolerance=cfg.element_tolerance,
        # Reuse the sensitivity stage's matrix when it already ran.
        sensitivities=ctx.generator._sensitivities,
    )
    ctx.deviations = matrix
    ctx.generator.matrix = matrix


def _stage_stimulus(ctx: PipelineContext) -> None:
    ctx.report.analog_tests = ctx.generator.analog_tests()


def _stage_conversion(ctx: PipelineContext) -> None:
    cfg = ctx.generator_config
    mask = ctx.generator.comparator_observability()
    ctx.report.comparator_observability = mask
    ctx.report.conversion_coverage = constrained_ladder_coverage(
        ctx.mixed.adc,
        lambda i: mask[i],
        tolerance=cfg.tolerance,
        element_tolerance=cfg.element_tolerance,
    )


def _stage_atpg(ctx: PipelineContext) -> None:
    constraint = (
        ctx.mixed.constraint_builder()
        if ctx.atpg_config.constrained
        else None
    )
    # Reuse the circuit BDD the earlier stages compiled (and the session
    # pool checked out) instead of recompiling per ATPG run.
    cbdd = ctx.mixed.compiled_digital(ctx.atpg_config.ordering)
    ctx.report.digital_run = run_atpg(
        ctx.mixed.digital,
        constraint=constraint,
        config=ctx.atpg_config,
        cbdd=cbdd,
    )
    if ctx.generator_config.include_unconstrained and constraint is not None:
        ctx.report.digital_run_unconstrained = run_atpg(
            ctx.mixed.digital, config=ctx.atpg_config, cbdd=cbdd
        )


def _stage_campaign(ctx: PipelineContext) -> None:
    ctx.campaign = run_campaign(
        ctx.mixed, ctx.report, config=ctx.campaign_config
    )


_STAGES = {
    "sensitivity": _stage_sensitivity,
    "deviation": _stage_deviation,
    "stimulus": _stage_stimulus,
    "conversion": _stage_conversion,
    "atpg": _stage_atpg,
    "campaign": _stage_campaign,
}


def _parameter_document(parameter) -> dict:
    return {**dataclasses.asdict(parameter), "kind": parameter.kind.value}


class _GenerationEntry:
    """The one ``pipeline-stage`` entry holding a run's generation outputs.

    Built only when the run has a ``cache_dir``.  The key digests the
    circuit as it is now (never a memo that an in-place edit could leave
    stale), both configs and the generation stages the run executes.
    """

    def __init__(self, root: str, ctx: PipelineContext, stages: list[str]):
        self.cache = ResultCache(root)
        mixed = ctx.mixed
        self.key = fingerprint_of(
            {
                "kind": STAGE_NAMESPACE,
                "version": _GENERATION_VERSION,
                "stages": stages,
                "circuit": {
                    "name": mixed.name,
                    "analog": analog_fingerprint(mixed.analog),
                    "source": mixed.analog_source,
                    "output": mixed.analog_output,
                    "adc": dataclasses.asdict(mixed.adc),
                    "digital": netlist_fingerprint(mixed.digital),
                    "converter_lines": list(mixed.converter_lines),
                    "parameters": [
                        _parameter_document(p) for p in mixed.parameters
                    ],
                },
                "generator": ctx.generator_config.as_dict(),
                "atpg": ctx.atpg_config.as_dict(),
            }
        )

    def load(self, ctx: PipelineContext) -> bool:
        """Restore the report and deviations; returns whether it could."""
        artifact = self.cache.get_artifact(STAGE_NAMESPACE, self.key)
        if artifact is None:
            return False
        try:
            document = artifact.payload["document"]
            if artifact.kind != "cache-entry" or document["key"] != self.key:
                raise ValueError("entry stored under a foreign key")
            report = _report_from_document(document["report"])
            deviations = document["deviations"]
            if deviations is not None:
                deviations = DeviationMatrix.from_cache_document(deviations)
        except (KeyError, TypeError, ValueError, AttributeError):
            # A foreign or misshapen entry is a miss.  Drop it, because
            # a put keeps any readable entry and would never repair it.
            self.cache.path_for(STAGE_NAMESPACE, self.key).unlink(
                missing_ok=True
            )
            return False
        ctx.report = report
        ctx.deviations = deviations
        return True

    def store(self, ctx: PipelineContext) -> None:
        deviations = ctx.deviations
        document = {
            "key": self.key,
            "report": _report_document(ctx.report),
            "deviations": None
            if deviations is None
            else deviations.to_cache_document(),
        }
        self.cache.put_artifact(
            STAGE_NAMESPACE,
            self.key,
            Artifact.from_cache_entry(STAGE_NAMESPACE, document),
        )


@dataclass
class PipelineOutcome:
    """Everything one pipeline run produced."""

    circuit_name: str
    #: the stages that actually executed (config vetoes excluded).
    stages: tuple[str, ...]
    report: MixedTestReport
    campaign: CampaignResult | None = None
    deviations: DeviationMatrix | None = None
    timings: list[StageTiming] = field(default_factory=list)
    #: netlist pre-flight summary (``run(..., preflight=True)`` only):
    #: a flat JSON-encodable dict.
    lint_diagnostics: dict | None = None

    @property
    def total_seconds(self) -> float:
        """Summed top-level stage wall-clock time.

        Per-shard sub-rows are excluded: their time is already inside
        their parent stage's row (and overlaps across processes).
        """
        return sum(t.seconds for t in self.timings if t.parent is None)

    def timing_table(self) -> str:
        """One line per stage (shard sub-rows indented), plus the total."""
        lines = [f"== pipeline timing: {self.circuit_name} =="]
        for timing in self.timings:
            suffix = f"  [{timing.backend}]" if timing.backend else ""
            if timing.cached:
                suffix += "  [cached]"
            indent = "    " if timing.parent is not None else "  "
            lines.append(
                f"{indent}{timing.stage:12s} {timing.seconds:8.3f}s{suffix}"
            )
        lines.append(f"  {'total':12s} {self.total_seconds:8.3f}s")
        return "\n".join(lines)


class Pipeline:
    """An ordered, validated subset of the canonical stages."""

    def __init__(self, stages: Sequence[str] | None = None):
        names = tuple(stages) if stages is not None else DEFAULT_STAGES
        unknown = [s for s in names if s not in _STAGES]
        if unknown:
            raise ConfigError(
                f"unknown pipeline stage(s) {unknown}; "
                f"valid stages: {list(STAGE_ORDER)}"
            )
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate pipeline stages in {list(names)}")
        indices = [STAGE_ORDER.index(s) for s in names]
        if indices != sorted(indices):
            raise ConfigError(
                f"stages must follow the canonical order {list(STAGE_ORDER)}; "
                f"got {list(names)}"
            )
        for stage, prerequisite in _REQUIRES.items():
            if stage in names and prerequisite not in names:
                raise ConfigError(
                    f"stage {stage!r} requires stage {prerequisite!r}"
                )
        self.stages = names

    def run(
        self,
        mixed: MixedSignalCircuit,
        generator: GeneratorConfig | None = None,
        campaign: CampaignConfig | None = None,
        atpg: AtpgConfig | None = None,
        preflight: bool = False,
    ) -> PipelineOutcome:
        """Execute the stages against one mixed circuit.

        With ``preflight=True``, the netlist semantic rules
        (:mod:`repro.devtools.lint`) run over the circuit first; their
        findings land in :attr:`PipelineOutcome.lint_diagnostics` and a
        ``preflight`` timing row.  Findings never abort the run — a
        semantically odd netlist still deserves its report, but the
        oddity rides along with the result.
        """
        generator = generator or GeneratorConfig()
        engine = MixedSignalTestGenerator(mixed, config=generator)
        ctx = PipelineContext(
            mixed=mixed,
            generator=engine,
            atpg_config=atpg or AtpgConfig(),
            campaign_config=campaign or CampaignConfig(),
            report=MixedTestReport(mixed.name),
        )
        timings: list[StageTiming] = []
        lint_diagnostics = None
        if preflight:
            from ..devtools.lint import lint_circuit

            start = time.perf_counter()
            lint_report = lint_circuit(mixed, name=mixed.name)
            timings.append(
                StageTiming("preflight", time.perf_counter() - start)
            )
            lint_diagnostics = {
                "findings": len(lint_report.findings),
                "circuits_checked": lint_report.circuits_checked,
                "details": [f.as_dict() for f in lint_report.findings],
            }
        # The config vetoes the digital stage.
        runnable = [
            name for name in self.stages
            if name != "atpg" or generator.include_digital
        ]
        generation = [name for name in runnable if name != "campaign"]
        cache_dir = ctx.campaign_config.cache_dir
        entry = (
            _GenerationEntry(cache_dir, ctx, generation)
            if cache_dir is not None and generation
            else None
        )
        served = False
        for name in runnable:
            start = time.perf_counter()
            if entry is not None and name == generation[0]:
                served = entry.load(ctx)
            cached = served and name != "campaign"
            if not cached:
                _STAGES[name](ctx)
            if entry is not None and not served and name == generation[-1]:
                entry.store(ctx)
            backend = None
            if name == "campaign" and ctx.campaign is not None:
                backend = (ctx.campaign.diagnostics or {}).get("backend")
            elif name == "atpg":
                # None for a run decoded from the cache.
                backend = (ctx.report.digital_diagnostics or {}).get(
                    "digital_engine"
                )
            timings.append(
                StageTiming(
                    name, time.perf_counter() - start, backend, cached=cached
                )
            )
            if name == "campaign" and ctx.campaign is not None:
                # A sharded campaign reports one informational sub-row
                # per shard (resumed shards cost ~0s: served from cache).
                for row in (ctx.campaign.diagnostics or {}).get(
                    "shard_rows", []
                ):
                    label = f"campaign:shard{row['shard']}"
                    if row.get("resumed"):
                        label += " (resumed)"
                    timings.append(
                        StageTiming(
                            stage=label,
                            seconds=row["seconds"],
                            parent="campaign",
                        )
                    )
        return PipelineOutcome(
            circuit_name=mixed.name,
            stages=tuple(runnable),
            report=ctx.report,
            campaign=ctx.campaign,
            deviations=ctx.deviations,
            timings=timings,
            lint_diagnostics=lint_diagnostics,
        )
