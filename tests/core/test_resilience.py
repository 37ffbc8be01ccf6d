"""Resilience primitives: retry policies and failure records."""

import pytest

from repro.api import Artifact, ConfigError
from repro.core.resilience import FailureRecord, RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)

    def test_should_retry_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    def test_delay_is_a_pure_function_of_seed_key_attempt(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert a.delay("shard-3", 1) == b.delay("shard-3", 1)
        assert a.delay("shard-3", 2) == b.delay("shard-3", 2)
        # Different keys and seeds jitter differently.
        assert a.delay("shard-3", 1) != a.delay("shard-4", 1)
        assert a.delay("shard-3", 1) != RetryPolicy(seed=8).delay("shard-3", 1)

    def test_delay_grows_exponentially_and_clamps(self):
        policy = RetryPolicy(
            base_delay=0.1, max_delay=0.4, jitter=0.0, max_attempts=6
        )
        assert policy.delays("k") == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_only_shrinks_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25, max_delay=1.0)
        for attempt in range(1, 10):
            delay = policy.delay("k", attempt)
            assert 0.75 <= delay <= 1.0

    def test_zero_base_delay_means_immediate_retry(self):
        assert RetryPolicy(base_delay=0.0, max_delay=0.0).delay("k", 1) == 0.0

    def test_bad_attempt_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy().delay("k", 0)


class TestFailureRecord:
    def test_document_round_trip(self):
        record = FailureRecord(
            phase="shard",
            error="ValueError: boom",
            attempts=2,
            key="3",
            fingerprint="f" * 64,
            detail={"kind": "exception", "start": 10, "stop": 20},
        )
        assert FailureRecord.from_document(record.to_document()) == record

    def test_from_exception_formats_type_and_message(self):
        record = FailureRecord.from_exception("job", ValueError("boom"))
        assert record.error == "ValueError: boom"
        assert record.attempts == 1

    def test_failure_artifact_round_trip(self):
        """The "failure" artifact kind's codec round-trips."""
        record = FailureRecord(phase="recovery", error="X: y", key="j000001")
        artifact = Artifact.from_failure(record)
        assert artifact.kind == "failure"
        reloaded = Artifact.from_json(artifact.to_json())
        assert reloaded.failure() == record
        assert reloaded.to_json() == artifact.to_json()

