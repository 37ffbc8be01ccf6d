"""Resilient campaign execution: chaos-injected failures, differential.

The contract under test (``repro.core.sharding`` + ``repro.devtools.
chaos``): a campaign disturbed by injected faults — a shard exception,
a killed worker, a hung shard, a torn shard cache entry, a crash at
merge —
either *recovers* to a result byte-identical to the undisturbed run, or
*quarantines* the failing shard into an honest partial result whose
completed shards are still byte-identical to their undisturbed
counterparts.  Chaos plans are pure functions of (site, key, attempt),
so every scenario here is deterministic.
"""

import random

import pytest

from repro.analog.faultsim import draw_faults
from repro.api import Artifact, CampaignConfig, Workbench
from repro.core import run_campaign
from repro.core.cache import ResultCache
from repro.core.sharding import (
    SHARD_NAMESPACE,
    ShardExecutionError,
    ShardHeartbeat,
    ShardRetry,
    ShardRun,
    campaign_fingerprint,
    failure_path,
    shard_bounds,
    shard_fingerprint,
)
from repro.devtools.chaos import ChaosError, ChaosEvent, ChaosPlan


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


def _config(**overrides):
    return CampaignConfig(faults_per_element=4, seed=11).replace(**overrides)


def _shard_fps(prepared, config) -> list[str]:
    """Each shard's cache key, in shard order."""
    mixed, report = prepared
    testable = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        testable,
        config.faults_per_element,
        config.severity_range,
        random.Random(config.seed),
    )
    return [
        shard_fingerprint(mixed.name, config, faults[start:stop], testable)
        for start, stop in shard_bounds(len(faults), config.shards)
    ]


def _chaos(*events) -> str:
    return ChaosPlan(events=tuple(events)).to_json()


@pytest.fixture(scope="module")
def prepared():
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


@pytest.fixture(scope="module")
def baseline(prepared):
    """The undisturbed run every recovered run must match exactly."""
    mixed, report = prepared
    return run_campaign(mixed, report, config=_config())


class TestRetryRecovery:
    def test_shard_exception_retried_to_identical_result(
        self, prepared, baseline
    ):
        """A shard that fails once recovers byte-identically on retry."""
        mixed, report = prepared
        events = []
        config = _config(
            shards=3,
            shard_workers=1,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(site="shard", key="1", attempts=(1,)),
            ),
        )
        result = run_campaign(
            mixed, report, config=config, progress=events.append
        )
        assert _outcome_key(result) == _outcome_key(baseline)
        assert not result.partial
        retries = result.diagnostics["retries"]
        assert [r["shard"] for r in retries] == [1]
        assert retries[0]["kind"] == "exception"
        assert retries[0]["retried"] is True
        # The failed attempt streamed as a ShardRetry progress event.
        shard_retries = [e for e in events if isinstance(e, ShardRetry)]
        assert len(shard_retries) == 1
        assert shard_retries[0].index == 1
        assert shard_retries[0].next_attempt == 2
        # Serialized, recovered == undisturbed, byte for byte.
        assert (
            Artifact.from_campaign(result, "fig4").to_json()
            == Artifact.from_campaign(baseline, "fig4").to_json()
        )

    def test_retry_schedule_is_deterministic(self, prepared):
        """Two disturbed runs retry on identical schedules and agree."""
        mixed, report = prepared
        config = _config(
            shards=2,
            shard_workers=1,
            retry_backoff=0.0,
            chaos=_chaos(ChaosEvent(site="shard", key="0", attempts=(1,))),
        )
        first = run_campaign(mixed, report, config=config)
        second = run_campaign(mixed, report, config=config)
        assert first.diagnostics["retries"] == second.diagnostics["retries"]
        assert _outcome_key(first) == _outcome_key(second)


class TestWorkerLoss:
    def test_killed_worker_degrades_and_recovers(self, prepared, baseline):
        """A chaos-killed worker process costs attempts, not outcomes."""
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=2,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(
                    site="shard", key="0", action="kill", attempts=(1,)
                ),
            ),
        )
        result = run_campaign(mixed, report, config=config)
        assert _outcome_key(result) == _outcome_key(baseline)
        assert not result.partial
        if result.diagnostics["process_pool"]:
            assert result.diagnostics["degraded_to_in_process"] is True
            assert any(
                row["kind"] == "worker-lost"
                for row in result.diagnostics["retries"]
            )

    def test_hung_worker_killed_at_deadline_and_recovered(
        self, prepared, baseline
    ):
        """A shard stuck past shard_timeout is killed, then retried."""
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=2,
            shard_timeout=0.75,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(
                    site="shard",
                    key="1",
                    action="delay",
                    attempts=(1,),
                    seconds=3.0,
                ),
            ),
        )
        result = run_campaign(mixed, report, config=config)
        assert _outcome_key(result) == _outcome_key(baseline)
        assert not result.partial
        kinds = {row["kind"] for row in result.diagnostics["retries"]}
        assert "deadline" in kinds

    def test_in_process_deadline_is_checked_after(self, prepared, baseline):
        """Serial mode can't kill itself mid-shard: overruns are detected
        on completion, discarded and retried."""
        mixed, report = prepared
        config = _config(
            shards=2,
            shard_workers=1,
            shard_timeout=0.75,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(
                    site="shard",
                    key="0",
                    action="delay",
                    attempts=(1,),
                    seconds=1.0,
                ),
            ),
        )
        result = run_campaign(mixed, report, config=config)
        assert _outcome_key(result) == _outcome_key(baseline)
        retries = result.diagnostics["retries"]
        assert [r["kind"] for r in retries] == ["deadline"]


class TestQuarantine:
    def test_exhausted_shard_quarantined_into_partial_result(
        self, prepared, baseline, tmp_path
    ):
        """Persistent failure yields a partial result, not a crash."""
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=1,
            retry_backoff=0.0,
            cache_dir=str(tmp_path),
            chaos=_chaos(
                ChaosEvent(site="shard", key="1", attempts=(1, 2)),
            ),
        )
        result = run_campaign(mixed, report, config=config)
        assert result.partial
        assert [row["shard"] for row in result.failed_shards] == [1]
        row = result.failed_shards[0]
        bounds = shard_bounds(len(baseline.outcomes), 3)
        assert (row["start"], row["stop"]) == bounds[1]
        assert row["attempts"] == 2
        assert row["kind"] == "exception"
        # Completed shards merge byte-identically to their undisturbed
        # counterparts: shard 1's slice is missing, nothing else moved.
        expected = (
            _outcome_key(baseline)[: bounds[1][0]]
            + _outcome_key(baseline)[bounds[1][1] :]
        )
        assert _outcome_key(result) == expected
        # The summary names the damage.
        assert "PARTIAL" in result.summary()
        missing = bounds[1][1] - bounds[1][0]
        assert f"{missing} fault(s) not executed" in result.summary()
        # Durable evidence: a failure artifact under the cache root's
        # failures/, named by the quarantined shard's cache key.
        shard_fp = _shard_fps(prepared, config)[1]
        assert list((tmp_path / "failures").iterdir()) == [
            failure_path(tmp_path, shard_fp)
        ]
        evidence = Artifact.load(failure_path(tmp_path, shard_fp))
        assert evidence.kind == "failure"
        record = evidence.failure()
        assert record.phase == "shard"
        assert record.attempts == 2
        assert record.key == "1"
        assert record.detail["start"], record.detail["stop"] == bounds[1]

    def test_quarantined_shard_heals_on_rerun(self, prepared, baseline, tmp_path):
        """A re-run without the fault re-executes only the failed shard."""
        mixed, report = prepared
        broken = _config(
            shards=3,
            shard_workers=1,
            retry_backoff=0.0,
            cache_dir=str(tmp_path),
            chaos=_chaos(
                ChaosEvent(site="shard", key="1", attempts=(1, 2)),
            ),
        )
        run_campaign(mixed, report, config=broken)
        evidence = failure_path(tmp_path, _shard_fps(prepared, broken)[1])
        assert evidence.exists()
        healed = run_campaign(
            mixed, report, config=broken.replace(chaos=None)
        )
        assert not healed.partial
        assert healed.diagnostics["resumed_shards"] == [0, 2]
        assert _outcome_key(healed) == _outcome_key(baseline)
        # Success clears the quarantine evidence.
        assert not evidence.exists()

    def test_partial_artifact_round_trips(self, prepared):
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=1,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(site="shard", key="2", attempts=(1, 2)),
            ),
        )
        result = run_campaign(mixed, report, config=config)
        assert result.partial
        artifact = Artifact.from_campaign(result, "fig4")
        reloaded = Artifact.from_json(artifact.to_json()).campaign()
        assert reloaded.partial
        assert reloaded.failed_shards == result.failed_shards
        assert _outcome_key(reloaded) == _outcome_key(result)

    def test_complete_results_keep_the_old_byte_format(self, prepared, baseline):
        """partial/failed_shards keys only appear on partial results, so
        complete campaigns serialize exactly as they always did."""
        mixed, report = prepared
        result = run_campaign(
            mixed, report, config=_config(shards=2, shard_workers=1)
        )
        document = Artifact.from_campaign(result, "fig4").payload
        assert "partial" not in document
        assert "failed_shards" not in document

    def test_no_quarantine_aborts_instead(self, prepared):
        mixed, report = prepared
        config = _config(
            shards=2,
            shard_workers=1,
            quarantine=False,
            retry_backoff=0.0,
            chaos=_chaos(
                ChaosEvent(site="shard", key="0", attempts=(1, 2)),
            ),
        )
        with pytest.raises(ShardExecutionError):
            run_campaign(mixed, report, config=config)


class TestCrashResume:
    def test_torn_checkpoint_write_resumes_cleanly(
        self, prepared, baseline, tmp_path
    ):
        """Dying mid-write of a shard's cache entry leaves a torn file;
        the resumed run re-executes exactly that shard and matches the
        baseline."""
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=1,
            cache_dir=str(tmp_path),
            chaos=_chaos(
                ChaosEvent(site="checkpoint", key="1", action="torn"),
            ),
        )
        with pytest.raises(ChaosError):
            run_campaign(mixed, report, config=config)
        # Shard 0's entry is durable; shard 1's is half a document.
        cache = ResultCache(tmp_path)
        fps = _shard_fps(prepared, config)
        assert cache.has_artifact(SHARD_NAMESPACE, fps[0])
        torn = cache.path_for(SHARD_NAMESPACE, fps[1]).read_text()
        assert torn  # the torn write really happened...
        assert not cache.has_artifact(SHARD_NAMESPACE, fps[1])
        resumed = run_campaign(
            mixed, report, config=config.replace(chaos=None)
        )
        # ...but reads as missing: only shard 0 is resumed.
        assert resumed.diagnostics["resumed_shards"] == [0]
        assert resumed.diagnostics["shards_executed"] == 2
        assert _outcome_key(resumed) == _outcome_key(baseline)

    def test_crash_at_merge_resumes_everything_from_checkpoints(
        self, prepared, baseline, tmp_path
    ):
        """Dying at merge time loses nothing: every shard is already
        cached, so the re-run executes zero shards."""
        mixed, report = prepared
        config = _config(
            shards=3,
            shard_workers=1,
            cache_dir=str(tmp_path),
            chaos=_chaos(ChaosEvent(site="merge", key="merge")),
        )
        with pytest.raises(ChaosError):
            run_campaign(mixed, report, config=config)
        resumed = run_campaign(
            mixed, report, config=config.replace(chaos=None)
        )
        assert resumed.diagnostics["resumed_shards"] == [0, 1, 2]
        assert resumed.diagnostics["shards_executed"] == 0
        assert _outcome_key(resumed) == _outcome_key(baseline)


class TestHeartbeats:
    def test_heartbeats_stream_while_shards_run(self, prepared):
        mixed, report = prepared
        events = []
        config = _config(
            shards=2, shard_workers=1, heartbeat_interval=0.001
        )
        run_campaign(mixed, report, config=config, progress=events.append)
        beats = [e for e in events if isinstance(e, ShardHeartbeat)]
        assert beats
        for beat in beats:
            assert beat.shards == 2
            assert 0 <= beat.completed <= 2
            assert beat.elapsed >= 0.0
        # Heartbeats ride alongside the existing ShardRun stream.
        assert len([e for e in events if isinstance(e, ShardRun)]) == 2

    def test_no_heartbeats_without_interval(self, prepared):
        mixed, report = prepared
        events = []
        run_campaign(
            mixed,
            report,
            config=_config(shards=2, shard_workers=1),
            progress=events.append,
        )
        assert not any(isinstance(e, ShardHeartbeat) for e in events)


class TestFingerprintExclusion:
    def test_resilience_knobs_never_invalidate_checkpoints(self, prepared):
        """Retuning failure handling must not re-key the campaign."""
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(testable, 4, (0.5, 3.0), random.Random(11))
        base = campaign_fingerprint(mixed.name, _config(), faults)
        for overrides in (
            {"shard_attempts": 5},
            {"shard_timeout": 9.0},
            {"retry_backoff": 1.0},
            {"quarantine": False},
            {"heartbeat_interval": 0.5},
            {"chaos": _chaos(ChaosEvent(site="merge", key="merge"))},
        ):
            assert (
                campaign_fingerprint(mixed.name, _config(**overrides), faults)
                == base
            )
