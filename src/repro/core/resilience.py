"""Resilience primitives: retry policies and failure records.

Only failures that are not deterministic are retried: a campaign shard
or a service job that raises would raise again on the same input, so
it fails once and recovery is resume (:mod:`repro.core.sharding`).
The service layer shares one vocabulary for what is left:

:class:`RetryPolicy`
    How many attempts a unit of work gets and how long to back off
    between them: :class:`repro.service.client.ServiceClient`'s
    transport retries, and the restart budget after which
    :class:`repro.service.jobs.JobQueue` declares a job poisoned.
    Backoff is exponential with jitter, and the jitter is **seeded** —
    ``delay(key, attempt)`` is a pure function of
    ``(seed, key, attempt)``, never of wall-clock or ambient RNG state,
    so two runs retry on identical schedules (the DET001 determinism
    contract extends to failure handling).

:class:`FailureRecord`
    The durable evidence a failure leaves behind: exception text,
    attempts consumed, the job key and the spec fingerprint.
    Serialized as a ``failure`` :class:`repro.api.Artifact`, it is what
    a failed or poisoned job points auditors at.

This module depends only on the stdlib and :mod:`repro.api.config`'s
error type (itself dependency-free), so every layer can import it
without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..api.config import ConfigError

__all__ = ["RetryPolicy", "FailureRecord"]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + deterministic seeded exponential backoff.

    Attributes:
        max_attempts: total attempts a unit of work gets (first try
            included); ``1`` disables retries.
        base_delay: backoff before the second attempt, in seconds;
            doubles per subsequent attempt.
        max_delay: exponential growth is clamped here.
        jitter: fraction of each delay randomized away (0 disables
            jitter).  The jitter RNG is seeded from
            ``(seed, key, attempt)``, so schedules are reproducible.
        seed: the policy's jitter seed.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0.0:
            raise ConfigError(
                f"base_delay must be >= 0, got {self.base_delay!r}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigError(
                "max_delay must be >= base_delay, got "
                f"{self.max_delay!r} < {self.base_delay!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"jitter must be in [0, 1], got {self.jitter!r}"
            )

    def should_retry(self, attempt: int) -> bool:
        """Whether a unit that just failed its ``attempt``-th try
        (1-based) has budget left."""
        return attempt < self.max_attempts

    def delay(self, key: object, attempt: int) -> float:
        """Backoff before the next attempt after the ``attempt``-th failure.

        A pure function of ``(seed, key, attempt)``: string-seeding a
        private ``random.Random`` keeps the jitter deterministic across
        processes and runs (no ambient RNG, no wall clock).
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt!r}")
        raw = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())

    def delays(self, key: object) -> list[float]:
        """The full backoff schedule for ``key`` (one entry per retry)."""
        return [
            self.delay(key, attempt)
            for attempt in range(1, self.max_attempts)
        ]


@dataclass(frozen=True)
class FailureRecord:
    """Durable evidence of one exhausted-or-fatal failure.

    Attributes:
        phase: which layer failed — ``"job"`` or ``"recovery"``.
        error: ``"ExceptionType: message"`` of the final failure.
        attempts: attempts consumed before giving up.
        key: the failed unit's identity (the job id).
        fingerprint: the spec fingerprint the unit belonged to, when
            known — ties the record to dedup.
        detail: free-form extra context.
    """

    phase: str
    error: str
    attempts: int = 1
    key: str | None = None
    fingerprint: str | None = None
    detail: dict = field(default_factory=dict)

    def to_document(self) -> dict:
        """JSON-encodable form (a ``failure`` artifact's payload)."""
        return {
            "phase": self.phase,
            "error": self.error,
            "attempts": self.attempts,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_document(cls, document: dict) -> "FailureRecord":
        """Rebuild a record from :meth:`to_document` output."""
        return cls(
            phase=document["phase"],
            error=document["error"],
            attempts=int(document.get("attempts", 1)),
            key=document.get("key"),
            fingerprint=document.get("fingerprint"),
            detail=dict(document.get("detail", {})),
        )

    @classmethod
    def from_exception(
        cls,
        phase: str,
        error: BaseException,
        attempts: int = 1,
        key: str | None = None,
        fingerprint: str | None = None,
        detail: dict | None = None,
    ) -> "FailureRecord":
        """A record for a live exception (formats ``Type: message``)."""
        return cls(
            phase=phase,
            error=f"{type(error).__name__}: {error}",
            attempts=attempts,
            key=key,
            fingerprint=fingerprint,
            detail=dict(detail or {}),
        )

