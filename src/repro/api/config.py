"""Typed, validated configuration for the :mod:`repro.api` workbench.

Every knob that used to travel as a loose keyword argument through
:class:`repro.core.MixedSignalTestGenerator`, :func:`repro.core.run_campaign`
and :func:`repro.atpg.run_atpg` lives here as a frozen dataclass that
validates itself on construction.  The configs are plain data — they
import nothing from the rest of the package, so every layer (including
:mod:`repro.core`) can depend on them without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

__all__ = [
    "ConfigError",
    "UnknownNameError",
    "GeneratorConfig",
    "CampaignConfig",
    "AtpgConfig",
    "SessionConfig",
]

#: variable-ordering heuristics understood by the BDD compiler.
BDD_ORDERINGS = ("fanin", "declaration")

#: fault-simulation engines behind the campaign stage (must mirror
#: ``repro.analog.faultsim.ENGINES``; the test suite cross-checks).
CAMPAIGN_ENGINES = ("factorized", "reference")

#: linear-system backends behind the simulation layer (must mirror
#: ``repro.spice.backends.BACKEND_NAMES``; the test suite cross-checks).
#: ``"auto"`` picks sparse at/above the node-count threshold.
SIM_BACKENDS = ("auto", "dense", "sparse")

#: digital fault-simulation engines (must mirror
#: ``repro.digital.simulate.DIGITAL_ENGINES``; the test suite
#: cross-checks).  ``"compiled"`` is the levelized cone-limited fast
#: path; ``"reference"`` the whole-circuit oracle interpreter.
DIGITAL_ENGINES = ("compiled", "reference")

#: :class:`CampaignConfig` fields earlier releases recorded in job files
#: and report metadata; :meth:`CampaignConfig.from_document` drops them.
RETIRED_CAMPAIGN_FIELDS = frozenset(
    {"batch", "checkpoint_dir", "factor_cache_size", "max_workers"}
)


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


class UnknownNameError(ConfigError, KeyError):
    """A circuit/experiment name lookup failed.

    Subclasses both :class:`ConfigError` (the API's error root, which
    the CLI maps to a clean exit) and :class:`KeyError` (the natural
    exception for a failed mapping lookup).
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; report it verbatim.
        return str(self.args[0]) if self.args else ""


class _Replaceable:
    """Shared helpers: keyword-checked ``replace`` and ``as_dict``."""

    def replace(self, **changes):
        """A copy with the given fields changed (unknown names rejected)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigError(
                f"{type(self).__name__} has no field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return dataclasses.replace(self, **changes)

    def with_overrides(self, **overrides):
        """A copy with the non-``None`` keywords applied.

        The CLI's merge: flags the user actually passed (not ``None``)
        win over the config's values.
        """
        changes = {
            name: value
            for name, value in overrides.items()
            if value is not None
        }
        return self.replace(**changes) if changes else self

    def as_dict(self) -> dict:
        """Field values as a plain dict (for artifact metadata)."""
        return dataclasses.asdict(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class GeneratorConfig(_Replaceable):
    """Configuration of the mixed-signal test generator.

    Attributes:
        tolerance: parameter tolerance box (the paper's ``x``, 5 %).
        element_tolerance: fault-free element tolerance (5 %).
        comparator_budget: comparators tried per (parameter, bound)
            before giving up; ``None`` means all of them.
        include_digital: run the constrained digital ATPG stage.
        include_unconstrained: additionally run the stand-alone
            (unconstrained) digital ATPG for comparison.
    """

    tolerance: float = 0.05
    element_tolerance: float = 0.05
    comparator_budget: int | None = None
    include_digital: bool = True
    include_unconstrained: bool = False

    def __post_init__(self) -> None:
        _require(
            0.0 < self.tolerance < 1.0,
            f"tolerance must be in (0, 1), got {self.tolerance!r}",
        )
        _require(
            0.0 < self.element_tolerance < 1.0,
            "element_tolerance must be in (0, 1), got "
            f"{self.element_tolerance!r}",
        )
        _require(
            self.comparator_budget is None or self.comparator_budget >= 1,
            "comparator_budget must be None or >= 1, got "
            f"{self.comparator_budget!r}",
        )


@dataclass(frozen=True)
class CampaignConfig(_Replaceable):
    """Configuration of the fault-injection campaign.

    Attributes:
        faults_per_element: injected deviations per testable element.
        severity_range: severities (multiples of the computed E.D.)
            drawn uniformly from this ``(low, high)`` interval.
        seed: RNG seed, so campaigns are reproducible artifacts.
        engine: fault-simulation engine — ``"factorized"`` (per-frequency
            LU reuse + Sherman–Morrison rank-one updates, the default)
            or ``"reference"`` (full re-solve per fault, the oracle the
            differential tests check the fast engine against).  Both
            produce the same seeded outcome lists, barring a gain that
            lands on a comparator threshold to within rounding.
        backend: linear-system backend for the campaign's analog solves
            — ``"auto"`` (sparse at/above the node-count threshold,
            dense below), ``"dense"`` or ``"sparse"``.
        digital_engine: digital-response evaluator inside the fast
            campaign engine — ``"compiled"`` (levelized single-pattern
            evaluation, the default) or ``"reference"`` (the classic
            dict-walking interpreter).  The ``"reference"`` *campaign*
            engine always uses the interpreter: it is the oracle.
        shards: split the seeded fault population into this many
            deterministic, contiguous index slices executed in worker
            *processes* (:mod:`repro.core.sharding`); ``1`` (the
            default) keeps the classic single-process run.  Any shard
            count yields outcomes byte-identical to the unsharded run.
        shard_workers: process fan-out over shards (``None`` = one per
            pending shard, capped by the CPU count).  Each shard's
            engine runs its faults serially.
        cache_dir: root of a content-addressed
            :class:`repro.core.cache.ResultCache`, the run's one cache
            root: generation stages and shard results persist here.
            When set, :class:`repro.api.Pipeline` keeps the outputs of
            the generation stages (sensitivity, deviation, stimulus,
            conversion, atpg) as one ``pipeline-stage`` entry keyed by
            the circuit's content and the configs, and serves them all
            from it on a re-run; each completed shard is published under
            its content fingerprint
            (:func:`repro.core.sharding.shard_fingerprint`), and any
            shard whose fingerprint is already cached — from an
            interrupted run of this campaign, an earlier run, or a
            different sharding of the same work — is served from the
            cache instead of being re-executed.  Editing one element
            recomputes the generation stages and only the shards whose
            fault slices changed.
        shard_attempts: total execution attempts each shard gets (first
            try included) before it is quarantined; ``1`` disables
            retries.  Retry backoff is deterministic (seeded from
            ``seed``), so a re-run retries on the identical schedule.
        shard_timeout: per-shard deadline in seconds (``None`` = no
            deadline).  A shard past its deadline has its worker killed
            and the attempt counts as a failure; completed shards stay
            cached.
        retry_backoff: base backoff before a shard's second attempt, in
            seconds (exponential growth, deterministic seeded jitter).
        quarantine: after ``shard_attempts`` failures, drop the shard
            and complete the campaign with ``CampaignResult.partial``
            set and a failed-shard manifest (the default).  ``False``
            restores the historical abort-on-failure behaviour
            (:class:`repro.core.sharding.ShardExecutionError`).
        heartbeat_interval: emit a liveness
            :class:`~repro.core.sharding.ShardHeartbeat` through the
            ``progress`` callback every this-many seconds while shard
            workers execute (``None`` = no heartbeats).
        chaos: JSON :class:`repro.devtools.chaos.ChaosPlan` document
            injecting deterministic failures into the executor — a
            dev/test harness, never set in production.  Excluded from
            fingerprints: chaos perturbs execution, not outcomes.

        The six resilience knobs above change how failures are
        *handled*, never which outcomes a completed campaign produces,
        so all of them sit in
        :data:`repro.core.sharding.FINGERPRINT_EXCLUDED_FIELDS`.
    """

    faults_per_element: int = 6
    severity_range: tuple[float, float] = (0.5, 3.0)
    seed: int = 2024
    engine: str = "factorized"
    backend: str = "auto"
    digital_engine: str = "compiled"
    shards: int = 1
    shard_workers: int | None = None
    cache_dir: str | None = None
    shard_attempts: int = 2
    shard_timeout: float | None = None
    retry_backoff: float = 0.05
    quarantine: bool = True
    heartbeat_interval: float | None = None
    chaos: str | None = None

    def __post_init__(self) -> None:
        _require(
            self.faults_per_element >= 1,
            "faults_per_element must be >= 1, got "
            f"{self.faults_per_element!r}",
        )
        _require(
            len(self.severity_range) == 2,
            f"severity_range must be (low, high), got {self.severity_range!r}",
        )
        low, high = self.severity_range
        _require(
            0.0 < low <= high,
            f"severity_range must satisfy 0 < low <= high, got {low!r}, {high!r}",
        )
        _require(
            self.engine in CAMPAIGN_ENGINES,
            f"engine must be one of {CAMPAIGN_ENGINES}, got {self.engine!r}",
        )
        _require(
            self.backend in SIM_BACKENDS,
            f"backend must be one of {SIM_BACKENDS}, got {self.backend!r}",
        )
        _require(
            self.digital_engine in DIGITAL_ENGINES,
            f"digital_engine must be one of {DIGITAL_ENGINES}, got "
            f"{self.digital_engine!r}",
        )
        _require(
            self.shards >= 1,
            f"shards must be >= 1, got {self.shards!r}",
        )
        _require(
            self.shard_workers is None or self.shard_workers >= 1,
            f"shard_workers must be None or >= 1, got {self.shard_workers!r}",
        )
        _require(
            self.cache_dir is None or isinstance(self.cache_dir, str),
            f"cache_dir must be None or a path string, got {self.cache_dir!r}",
        )
        _require(
            self.shard_attempts >= 1,
            f"shard_attempts must be >= 1, got {self.shard_attempts!r}",
        )
        _require(
            self.shard_timeout is None or self.shard_timeout > 0.0,
            f"shard_timeout must be None or > 0, got {self.shard_timeout!r}",
        )
        _require(
            self.retry_backoff >= 0.0,
            f"retry_backoff must be >= 0, got {self.retry_backoff!r}",
        )
        _require(
            isinstance(self.quarantine, bool),
            f"quarantine must be a bool, got {self.quarantine!r}",
        )
        _require(
            self.heartbeat_interval is None or self.heartbeat_interval > 0.0,
            "heartbeat_interval must be None or > 0, got "
            f"{self.heartbeat_interval!r}",
        )
        _require(
            self.chaos is None or isinstance(self.chaos, str),
            f"chaos must be None or a JSON string, got {self.chaos!r}",
        )

    @classmethod
    def from_document(cls, document: dict) -> "CampaignConfig":
        """Rebuild a config from its :meth:`as_dict` JSON form.

        JSON stores ``severity_range`` as a list; it comes back as a
        tuple.  The :data:`RETIRED_CAMPAIGN_FIELDS`, which job files and
        report metadata of earlier releases still carry, are dropped;
        any other unknown field raises :class:`ConfigError`.
        """
        changes = {
            name: value
            for name, value in document.items()
            if name not in RETIRED_CAMPAIGN_FIELDS
        }
        if isinstance(changes.get("severity_range"), list):
            changes["severity_range"] = tuple(changes["severity_range"])
        return cls().replace(**changes)


@dataclass(frozen=True)
class AtpgConfig(_Replaceable):
    """Configuration of the digital stuck-at ATPG stage.

    Attributes:
        ordering: BDD variable-ordering heuristic.
        compact: reverse-order fault-simulation compaction of the vectors.
        collapse: equivalence-collapse the default fault universe.
        constrained: apply the conversion block's thermometer ``Fc``
            (mixed-circuit case); ``False`` tests the block stand-alone.
        engine: digital fault-simulation engine behind compaction and
            vector verification — the compiled cone-limited fast path
            or the reference interpreter (identical vector lists).
        simulation_check: cross-check every generated vector by
            fault-simulating it against its target fault (cheap with
            the compiled engine; raises on disagreement between the
            BDD algebra and the simulator).
    """

    ordering: str = "fanin"
    compact: bool = True
    collapse: bool = True
    constrained: bool = True
    engine: str = "compiled"
    simulation_check: bool = False

    def __post_init__(self) -> None:
        _require(
            self.ordering in BDD_ORDERINGS,
            f"ordering must be one of {BDD_ORDERINGS}, got {self.ordering!r}",
        )
        _require(
            self.engine in DIGITAL_ENGINES,
            f"engine must be one of {DIGITAL_ENGINES}, got {self.engine!r}",
        )


@dataclass(frozen=True)
class SessionConfig(_Replaceable):
    """Bundle of per-stage configs a :class:`repro.api.TestSession` holds.

    Attributes:
        generator: analog/mixed generation settings.
        campaign: fault-injection campaign settings.
        atpg: digital ATPG settings.
        max_workers: worker threads for ``run_batch`` (``None`` = one
            per batch entry, capped by the interpreter's CPU count).
            Each thread drives its own circuit; a campaign inside it
            runs serially.
    """

    generator: GeneratorConfig = GeneratorConfig()
    campaign: CampaignConfig = CampaignConfig()
    atpg: AtpgConfig = AtpgConfig()
    max_workers: int | None = None

    def __post_init__(self) -> None:
        _require(
            self.max_workers is None or self.max_workers >= 1,
            f"max_workers must be None or >= 1, got {self.max_workers!r}",
        )
