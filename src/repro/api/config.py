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

#: :class:`CampaignConfig` fields earlier releases recorded in job files
#: and report metadata; :meth:`CampaignConfig.from_document` drops them.
RETIRED_CAMPAIGN_FIELDS = frozenset(
    {
        "backend",
        "batch",
        "checkpoint_dir",
        "digital_engine",
        "engine",
        "factor_cache_size",
        "heartbeat_interval",
        "max_workers",
        "shard_timeout",
        "shard_workers",
    }
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

    #: fields earlier releases recorded that :meth:`from_document` drops.
    _retired = frozenset()

    @classmethod
    def from_document(cls, document: dict):
        """Rebuild a config from its :meth:`as_dict` JSON form.

        Retired fields, which job files and report metadata of earlier
        releases still carry, are dropped; any other unknown field
        raises :class:`ConfigError`.
        """
        return cls().replace(
            **{
                name: value
                for name, value in document.items()
                if name not in cls._retired
            }
        )


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

    Every campaign runs :class:`repro.analog.faultsim.FactorizedEngine`.
    Its oracle, :class:`~repro.analog.faultsim.ReferenceEngine`, is not
    selectable here: ``repro audit`` and the differential tests call it
    directly on the same population.

    Attributes:
        faults_per_element: injected deviations per testable element.
        severity_range: severities (multiples of the computed E.D.)
            drawn uniformly from this ``(low, high)`` interval.
        seed: RNG seed, so campaigns are reproducible artifacts.
        shards: split the seeded fault population into this many
            deterministic, contiguous index slices
            (:mod:`repro.core.sharding`), the units a campaign is cached
            and resumed by; they run serially in the caller's process.
            ``1`` (the default) keeps the classic unsharded run.  Any
            shard count yields outcomes byte-identical to the unsharded
            run.
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
        retry_backoff: base backoff before a shard's second attempt, in
            seconds (exponential growth, deterministic seeded jitter).
        quarantine: after ``shard_attempts`` failures, drop the shard
            and complete the campaign with ``CampaignResult.partial``
            set and a failed-shard manifest (the default).  ``False``
            restores the historical abort-on-failure behaviour
            (:class:`repro.core.sharding.ShardExecutionError`).
        chaos: JSON :class:`repro.devtools.chaos.ChaosPlan` document
            injecting deterministic failures into the executor — a
            dev/test harness, never set in production.  Excluded from
            fingerprints: chaos perturbs execution, not outcomes.

        The resilience knobs above change how failures are *handled*,
        never which outcomes a completed campaign produces, so all of
        them sit in
        :data:`repro.core.sharding.FINGERPRINT_EXCLUDED_FIELDS`.

        ``shard_workers``, the retired process fan-out, is still
        accepted as a constructor keyword and discarded; it is not a
        field.
    """

    faults_per_element: int = 6
    severity_range: tuple[float, float] = (0.5, 3.0)
    seed: int = 2024
    shards: int = 1
    cache_dir: str | None = None
    shard_attempts: int = 2
    retry_backoff: float = 0.05
    quarantine: bool = True
    chaos: str | None = None
    shard_workers: dataclasses.InitVar[int | None] = None

    _retired = RETIRED_CAMPAIGN_FIELDS

    def __post_init__(self, shard_workers: int | None) -> None:
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
            self.shards >= 1,
            f"shards must be >= 1, got {self.shards!r}",
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
            self.retry_backoff >= 0.0,
            f"retry_backoff must be >= 0, got {self.retry_backoff!r}",
        )
        _require(
            isinstance(self.quarantine, bool),
            f"quarantine must be a bool, got {self.quarantine!r}",
        )
        _require(
            self.chaos is None or isinstance(self.chaos, str),
            f"chaos must be None or a JSON string, got {self.chaos!r}",
        )

    @classmethod
    def from_document(cls, document: dict) -> "CampaignConfig":
        """As :meth:`_Replaceable.from_document`; JSON stores
        ``severity_range`` as a list, and it comes back as a tuple."""
        document = dict(document)
        if isinstance(document.get("severity_range"), list):
            document["severity_range"] = tuple(document["severity_range"])
        return super().from_document(document)


@dataclass(frozen=True)
class AtpgConfig(_Replaceable):
    """Configuration of the digital stuck-at ATPG stage.

    Attributes:
        compact: reverse-order fault-simulation compaction of the vectors.
        collapse: equivalence-collapse the default fault universe.
        constrained: apply the conversion block's thermometer ``Fc``
            (mixed-circuit case); ``False`` tests the block stand-alone.
        simulation_check: cross-check every generated vector by
            fault-simulating it against its target fault (one
            cone-limited compiled pass per vector; raises on
            disagreement between the BDD algebra and the simulator).
    """

    compact: bool = True
    collapse: bool = True
    constrained: bool = True
    simulation_check: bool = False

    _retired = frozenset({"engine", "ordering"})


@dataclass(frozen=True)
class SessionConfig(_Replaceable):
    """Bundle of per-stage configs a :class:`repro.api.TestSession` holds.

    Attributes:
        generator: analog/mixed generation settings.
        campaign: fault-injection campaign settings.
        atpg: digital ATPG settings.
    """

    generator: GeneratorConfig = GeneratorConfig()
    campaign: CampaignConfig = CampaignConfig()
    atpg: AtpgConfig = AtpgConfig()

    _retired = frozenset({"max_workers"})
