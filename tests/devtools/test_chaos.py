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

    @pytest.mark.parametrize("action", ["kill", "delay"])
    def test_retired_actions_rejected(self, action):
        # Shards run in the caller's process: nothing kills or times out
        # a worker, so plans asking for either fail loudly.
        with pytest.raises(ChaosError, match="action"):
            ChaosEvent(site="shard", key="0", action=action)
        with pytest.raises(ChaosError, match="seconds"):
            ChaosEvent.from_document(
                {"site": "shard", "key": "0", "seconds": 1.0}
            )

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
            site="checkpoint", key="1", action="torn", attempts=(2,)
        )
        assert ChaosEvent.from_document(event.to_document()) == event

    def test_unknown_keys_rejected(self):
        with pytest.raises(ChaosError):
            ChaosEvent.from_document({"site": "shard", "key": "0", "when": 1})


class TestChaosPlan:
    def test_json_round_trip(self):
        plan = ChaosPlan(
            events=(
                ChaosEvent(site="checkpoint", key="0", action="torn"),
                ChaosEvent(site="merge", key="merge"),
            )
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_first_matching_event_wins(self):
        plan = ChaosPlan(
            events=(
                ChaosEvent(site="checkpoint", key="1", action="torn"),
                ChaosEvent(site="checkpoint", key="*", action="raise"),
            )
        )
        assert plan.event_for("checkpoint", 1).action == "torn"
        assert plan.event_for("checkpoint", 2).action == "raise"
        assert plan.event_for("checkpoint", 1, attempt=2) is None

    def test_fire_raise(self):
        plan = ChaosPlan(events=(ChaosEvent(site="job", key="fig4"),))
        with pytest.raises(ChaosError):
            plan.fire("job", "fig4")
        assert plan.fire("job", "other") is None

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
