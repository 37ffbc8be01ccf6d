"""Deterministic chaos injection: seeded failures at chosen points.

Resilience code that is only exercised by real crashes is dead code
until the worst moment.  This module makes every recovery path in the
executor and the service testable on demand: a :class:`ChaosPlan` is a
list of :class:`ChaosEvent` entries, each naming an injection **site**
(where in the stack), a **key** (which shard / route / circuit) and the
1-based **attempts** at which it fires.  Because matching is a pure
function of ``(site, key, attempt)`` — no RNG, no clocks, no counters —
a plan that fails shard 2 on attempt 1 *always* fails exactly
that, and the retried attempt 2 always runs clean.  That is what lets
the differential suites assert recovered runs are **byte-identical** to
undisturbed runs.

Sites and the actions they honour::

    site          key                     actions
    ----          ---                     -------
    shard         shard index             raise
    checkpoint    shard index             torn (the shard cache entry)
    merge         "merge"                 raise
    job           circuit name (or *)     raise
    http          "METHOD /path" (or *)   raise

An event pairing a site with an action its hook does not honour is
rejected when the plan is built, rather than never firing or firing as
something else.

Activation: :func:`resolve_plan` takes an explicit JSON spec
(``CampaignConfig.chaos`` / ``--chaos``, or the ``chaos=`` argument of
the service's ``Scheduler`` and ``make_server``).  Chaos is a dev/test
harness: the ``chaos`` field is excluded from campaign fingerprints (it
perturbs *execution*, never outcome identity — any run that completes
produces the same bytes), and an unset plan costs one ``None`` check
per hook.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

__all__ = [
    "CHAOS_SITES",
    "CHAOS_ACTIONS",
    "SITE_ACTIONS",
    "ChaosError",
    "ChaosEvent",
    "ChaosPlan",
    "resolve_plan",
]

#: every injection site wired into the stack.
CHAOS_SITES = ("shard", "checkpoint", "merge", "job", "http")

#: every supported action.
CHAOS_ACTIONS = ("raise", "torn")

#: the actions each site's hook honours (the table in the module
#: docstring).
SITE_ACTIONS: dict[str, tuple[str, ...]] = {
    "shard": ("raise",),
    "checkpoint": ("torn",),
    "merge": ("raise",),
    "job": ("raise",),
    "http": ("raise",),
}


class ChaosError(RuntimeError):
    """The injected failure (also raised for malformed plan documents)."""


@dataclass(frozen=True)
class ChaosEvent:
    """One planned injection: fire ``action`` at ``(site, key, attempt)``.

    ``key`` is compared against ``str(key)`` of the hook's key (shard
    indices arrive as ints); ``"*"`` matches any key.  ``attempts``
    lists the 1-based attempt numbers that fire — an event on attempt 1
    only is exactly how "fail once, recover on retry" scenarios are
    written.
    """

    site: str
    key: str
    action: str = "raise"
    attempts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.site not in CHAOS_SITES:
            raise ChaosError(
                f"chaos site must be one of {CHAOS_SITES}, got {self.site!r}"
            )
        if self.action not in CHAOS_ACTIONS:
            raise ChaosError(
                f"chaos action must be one of {CHAOS_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.action not in SITE_ACTIONS[self.site]:
            raise ChaosError(
                f"chaos site {self.site!r} takes action(s) "
                f"{SITE_ACTIONS[self.site]}, got {self.action!r}"
            )
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ChaosError(
                f"chaos attempts must be 1-based, got {self.attempts!r}"
            )

    def matches(self, site: str, key: object, attempt: int) -> bool:
        """Pure match on ``(site, key, attempt)`` — no hidden state."""
        return (
            self.site == site
            and (self.key == "*" or self.key == str(key))
            and attempt in self.attempts
        )

    def to_document(self) -> dict[str, object]:
        """JSON-encodable form."""
        return {
            "site": self.site,
            "key": self.key,
            "action": self.action,
            "attempts": list(self.attempts),
        }

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "ChaosEvent":
        """Parse one event object (unknown keys rejected loudly)."""
        known = {"site", "key", "action", "attempts"}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ChaosError(
                f"chaos event has unknown key(s) {unknown}; known: "
                f"{sorted(known)}"
            )
        site = document.get("site")
        key = document.get("key")
        if not isinstance(site, str) or not isinstance(key, str):
            raise ChaosError(
                "chaos event requires string 'site' and 'key' fields, "
                f"got {document!r}"
            )
        attempts_raw = document.get("attempts", [1])
        if not isinstance(attempts_raw, (list, tuple)) or not all(
            isinstance(a, int) and not isinstance(a, bool)
            for a in attempts_raw
        ):
            raise ChaosError(
                f"chaos attempts must be a list of ints, got {attempts_raw!r}"
            )
        action = document.get("action", "raise")
        if not isinstance(action, str):
            raise ChaosError(f"chaos action must be a string, got {action!r}")
        return cls(
            site=site,
            key=key,
            action=action,
            attempts=tuple(attempts_raw),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable set of planned injections; the first matching
    event wins."""

    events: tuple[ChaosEvent, ...] = ()

    def event_for(
        self, site: str, key: object, attempt: int = 1
    ) -> ChaosEvent | None:
        """The first event matching ``(site, key, attempt)``, if any."""
        for event in self.events:
            if event.matches(site, key, attempt):
                return event
        return None

    def fire(self, site: str, key: object, attempt: int = 1) -> None:
        """Raise :class:`ChaosError` if an event matches; return
        quietly otherwise (the undisturbed path)."""
        event = self.event_for(site, key, attempt)
        if event is None:
            return
        raise ChaosError(
            f"chaos[{site}:{key}@{attempt}]: injected {event.action}"
        )

    # -- codec ----------------------------------------------------------
    def to_json(self) -> str:
        """Stable JSON form (the ``CampaignConfig.chaos`` string)."""
        return json.dumps(
            {"events": [event.to_document() for event in self.events]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Parse a plan document; malformed plans fail loudly."""
        try:
            document = json.loads(text)
        except ValueError as error:
            raise ChaosError(f"chaos plan is not valid JSON: {error}") from None
        if not isinstance(document, dict):
            raise ChaosError(
                f"chaos plan must be a JSON object, got "
                f"{type(document).__name__}"
            )
        events_raw = document.get("events", [])
        if not isinstance(events_raw, list):
            raise ChaosError(
                f"chaos plan 'events' must be a list, got {events_raw!r}"
            )
        events: list[ChaosEvent] = []
        for entry in events_raw:
            if not isinstance(entry, dict):
                raise ChaosError(
                    f"chaos event must be an object, got {entry!r}"
                )
            events.append(ChaosEvent.from_document(entry))
        return cls(events=tuple(events))


def resolve_plan(spec: str | None = None) -> ChaosPlan | None:
    """The plan a JSON ``spec`` describes.

    Returns ``None`` — the production fast path — when ``spec`` is
    unset.  An empty-events plan is returned as ``None`` too: no events
    means no chaos.
    """
    if not spec:
        return None
    plan = ChaosPlan.from_json(spec)
    return plan if plan.events else None
