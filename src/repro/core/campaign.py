"""Fault-injection campaign: score a generated test program.

The paper validates its method by injecting faults on a board and
checking that the generated tests catch them (section 3.1).  This module
industrializes that: given a mixed circuit and the generator's report,
it injects a seeded population of analog parametric faults — at and
around the computed worst-case deviations — executes the emitted
program against each faulty circuit, and reports detection rates.

This is the end-to-end figure of merit for the whole method: a recipe
is only as good as its behaviour on faults it has never seen.

The execution itself is delegated to a :mod:`repro.analog.faultsim`
engine.  ``engine="factorized"`` (the default) reuses per-frequency LU
factorizations and Sherman–Morrison rank-one updates; the
``"reference"`` engine re-assembles and re-solves every faulty system
and serves as the oracle the differential test suite checks the fast
engine against.  Both produce identical seeded outcome lists.

With ``config.shards > 1`` (or a ``cache_dir``), execution is
delegated to :mod:`repro.core.sharding`: the fault population — still
drawn exactly once from ``random.Random(config.seed)`` — is partitioned
by index across worker processes, each completed shard may be cached
for resume, and the merged result is byte-identical to the
single-process run.
"""

from __future__ import annotations

import random

from ..analog.faultsim import (
    CampaignResult,
    InjectionOutcome,
    draw_faults,
    get_engine,
)
from ..api.config import CampaignConfig
from .coverage import MixedTestReport
from .mixed_circuit import MixedSignalCircuit

__all__ = ["InjectionOutcome", "CampaignResult", "run_campaign"]


def run_campaign(
    mixed: MixedSignalCircuit,
    report: MixedTestReport,
    faults_per_element: int | None = None,
    severity_range: tuple[float, float] | None = None,
    seed: int | None = None,
    engine: str | None = None,
    backend: str | None = None,
    digital_engine: str | None = None,
    config: CampaignConfig | None = None,
    progress=None,
) -> CampaignResult:
    """Inject seeded analog faults and execute the emitted program.

    For each analog element with a test recipe, ``faults_per_element``
    deviations are drawn with severities (multiples of the element's
    computed E.D.) uniform in ``severity_range``, both directions.  Every
    program step is tried against every fault — any step may catch it —
    with the step targeting the faulted element tried first.

    The canonical configuration is a typed
    :class:`repro.api.CampaignConfig`; the loose keyword arguments are
    the legacy surface (explicit values override the config).  The
    ``engine`` selects the :mod:`repro.analog.faultsim` implementation
    (``"factorized"`` fast path or the ``"reference"`` oracle);
    ``backend`` the :mod:`repro.spice.backends` linear-system backend
    the engine's analog solves run on; ``digital_engine`` the digital
    response evaluator inside the fast engine (``"compiled"``
    levelized circuit or the ``"reference"`` interpreter).  The
    returned result's ``diagnostics`` records which backend/engines
    actually ran and how many LU factorizations it built.

    ``progress`` (sharded runs only) is forwarded to
    :func:`repro.core.sharding.run_sharded_campaign`: it receives each
    completed :class:`~repro.core.sharding.ShardRun` as it lands, which
    is how the service layer streams per-shard job events.
    """
    config = (config if config is not None else CampaignConfig()).with_overrides(
        faults_per_element=faults_per_element,
        severity_range=severity_range,
        seed=seed,
        engine=engine,
        backend=backend,
        digital_engine=digital_engine,
    )
    rng = random.Random(config.seed)
    testable = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        testable, config.faults_per_element, config.severity_range, rng
    )
    if (
        config.shards > 1
        # The result cache publishes and resumes per-shard artifacts,
        # so a cached campaign always runs through the sharded driver
        # (a single shard is fine — it still dedups across re-runs).
        or config.cache_dir is not None
        # Chaos rides the sharded executor: that is where the retry,
        # quarantine and degradation machinery it exercises lives.
        or config.chaos is not None
    ):
        # Imported lazily so the module table stays cheap for the
        # overwhelmingly common unsharded path.
        from .sharding import run_sharded_campaign

        return run_sharded_campaign(
            mixed, testable, faults, config, progress=progress
        )
    engine_instance = get_engine(config.engine)
    outcomes = engine_instance.run(
        mixed,
        testable,
        faults,
        max_workers=config.max_workers,
        backend=config.backend,
        digital_engine=config.digital_engine,
    )
    return CampaignResult(
        outcomes=outcomes, diagnostics=engine_instance.last_diagnostics
    )
