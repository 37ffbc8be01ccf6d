"""The chaos harness: plan codec, matching, firing, resolution."""

import pytest

from repro.devtools.chaos import (
    ChaosError,
    ChaosEvent,
    ChaosPlan,
    resolve_plan,
)


class TestChaosEvent:
    def test_validation(self):
        with pytest.raises(ChaosError):
            ChaosEvent(site="nope", key="*")
        with pytest.raises(ChaosError):
            ChaosEvent(site="shard", key="0", action="explode")
        with pytest.raises(ChaosError):
            ChaosEvent(site="shard", key="0", attempts=())
        with pytest.raises(ChaosError):
            ChaosEvent(site="shard", key="0", attempts=(0,))
        with pytest.raises(ChaosError):
            ChaosEvent(site="shard", key="0", seconds=-1.0)

    def test_matching_is_pure_on_site_key_attempt(self):
        event = ChaosEvent(site="shard", key="2", attempts=(1, 3))
        assert event.matches("shard", 2, 1)  # int keys stringify
        assert event.matches("shard", "2", 3)
        assert not event.matches("shard", 2, 2)
        assert not event.matches("shard", 3, 1)
        assert not event.matches("job", 2, 1)

    def test_wildcard_key(self):
        event = ChaosEvent(site="http", key="*")
        assert event.matches("http", "GET /jobs", 1)
        assert event.matches("http", "POST /jobs", 1)

    def test_document_round_trip(self):
        event = ChaosEvent(
            site="shard", key="1", action="delay", attempts=(2,), seconds=0.5
        )
        assert ChaosEvent.from_document(event.to_document()) == event

    def test_unknown_keys_rejected(self):
        with pytest.raises(ChaosError):
            ChaosEvent.from_document({"site": "shard", "key": "0", "when": 1})


class TestChaosPlan:
    def test_json_round_trip(self):
        plan = ChaosPlan(
            events=(
                ChaosEvent(site="shard", key="0", action="kill"),
                ChaosEvent(site="merge", key="merge"),
            )
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_first_matching_event_wins(self):
        plan = ChaosPlan(
            events=(
                ChaosEvent(site="shard", key="1", action="delay"),
                ChaosEvent(site="shard", key="*", action="raise"),
            )
        )
        assert plan.event_for("shard", 1).action == "delay"
        assert plan.event_for("shard", 2).action == "raise"
        assert plan.event_for("shard", 1, attempt=2) is None

    def test_fire_raise(self):
        plan = ChaosPlan(events=(ChaosEvent(site="job", key="fig4"),))
        with pytest.raises(ChaosError):
            plan.fire("job", "fig4")
        assert plan.fire("job", "other") is None

    def test_fire_delay_sleeps_and_returns_event(self):
        plan = ChaosPlan(
            events=(
                ChaosEvent(
                    site="shard", key="0", action="delay", seconds=0.0
                ),
            )
        )
        event = plan.fire("shard", 0)
        assert event is not None and event.action == "delay"

    def test_fire_kill_degrades_to_raise_in_process(self):
        plan = ChaosPlan(
            events=(ChaosEvent(site="shard", key="0", action="kill"),)
        )
        with pytest.raises(ChaosError):
            plan.fire("shard", 0, in_process=True)
        # (the not-in_process branch would os._exit(43): tested end-to-end
        # by the executor's worker-kill differential test)

    def test_malformed_plans_fail_loudly(self):
        for bad in ("not json", "[1]", '{"events": 3}', '{"events": [4]}'):
            with pytest.raises(ChaosError):
                ChaosPlan.from_json(bad)


class TestResolvePlan:
    def test_none_when_nothing_set(self):
        assert resolve_plan(None) is None

    def test_empty_plans_resolve_to_none(self):
        assert resolve_plan('{"events": []}') is None
        assert resolve_plan("") is None
