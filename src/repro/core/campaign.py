"""Fault-injection campaign: score a generated test program.

The paper validates its method by injecting faults on a board and
checking that the generated tests catch them (section 3.1).  This module
industrializes that: given a mixed circuit and the generator's report,
it injects a seeded population of analog parametric faults — at and
around the computed worst-case deviations — executes the emitted
program against each faulty circuit, and reports detection rates.

This is the end-to-end figure of merit for the whole method: a recipe
is only as good as its behaviour on faults it has never seen.

The execution itself is :class:`repro.analog.faultsim.FactorizedEngine`,
which reuses per-frequency LU factorizations and Sherman–Morrison
rank-one updates.  Its oracle, :class:`~repro.analog.faultsim.
ReferenceEngine`, re-assembles and re-solves every faulty system; it is
never a campaign option, but ``repro audit`` and the differential tests
call ``ReferenceEngine().run(mixed, *draw_population(report, config))``
on the same population.  Both produce the same seeded outcome lists,
barring a gain that lands on a comparator threshold to within rounding.

With ``config.shards > 1`` (or a ``cache_dir``), execution is
delegated to :mod:`repro.core.sharding`: the fault population — still
drawn exactly once from ``random.Random(config.seed)`` — is partitioned
by index into shards that run in the caller's process, each completed
shard may be cached for resume, and the merged result is
byte-identical to the unsharded run.
"""

from __future__ import annotations

import random

from ..analog.faultsim import (
    CampaignResult,
    FactorizedEngine,
    FaultSpec,
    InjectionOutcome,
    draw_faults,
)
from ..api.config import CampaignConfig
from .coverage import MixedTestReport
from .mixed_circuit import MixedSignalCircuit

__all__ = [
    "InjectionOutcome",
    "CampaignResult",
    "draw_population",
    "run_campaign",
]


def draw_population(
    report: MixedTestReport, config: CampaignConfig
) -> tuple[list, list[FaultSpec]]:
    """The testable program steps and the seeded fault population.

    For each analog element with a test recipe,
    ``config.faults_per_element`` deviations are drawn from
    ``random.Random(config.seed)`` with severities (multiples of the
    element's computed E.D.) uniform in ``config.severity_range``, both
    directions.  Campaigns, ``repro audit`` and the differential tests
    all draw through here, so they score the same faults.
    """
    testable = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        testable,
        config.faults_per_element,
        config.severity_range,
        random.Random(config.seed),
    )
    return testable, faults


def run_campaign(
    mixed: MixedSignalCircuit,
    report: MixedTestReport,
    config: CampaignConfig | None = None,
    progress=None,
) -> CampaignResult:
    """Inject seeded analog faults and execute the emitted program.

    The population comes from :func:`draw_population`.  Every program
    step is tried against every fault — any step may catch it — with
    the step targeting the faulted element tried first.

    ``config`` (a :class:`repro.api.CampaignConfig`, default-constructed
    when ``None``) is the one configuration surface.  The returned
    result's ``diagnostics`` records which backend/engines actually ran
    and how many LU factorizations it built.

    ``progress`` (sharded runs only) is forwarded to
    :func:`repro.core.sharding.run_sharded_campaign`: it receives each
    completed :class:`~repro.core.sharding.ShardRun` as it lands, which
    is how the service layer streams per-shard job events.
    """
    if config is None:
        config = CampaignConfig()
    testable, faults = draw_population(report, config)
    if (
        config.shards > 1
        # The result cache publishes and resumes per-shard artifacts,
        # so a cached campaign always runs through the sharded driver
        # (a single shard is fine — it still dedups across re-runs).
        or config.cache_dir is not None
    ):
        # Imported lazily so the module table stays cheap for the
        # overwhelmingly common unsharded path.
        from .sharding import run_sharded_campaign

        return run_sharded_campaign(
            mixed, testable, faults, config, progress=progress
        )
    engine = FactorizedEngine()
    outcomes = engine.run(mixed, testable, faults)
    return CampaignResult(outcomes=outcomes, diagnostics=engine.last_diagnostics)
