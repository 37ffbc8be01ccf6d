"""Service-layer resilience: job retries, poison jobs, client retries.

Chaos plans drive every failure deterministically: the scheduler's
``job`` site fails executions, the campaign config's ``chaos`` field
quarantines shards, and the HTTP server's ``http`` site turns routes
into 500s — exercising the retry/evidence paths end to end without a
single real crash.
"""

import socket
import threading
import time

import pytest

from repro.api import Artifact, CampaignConfig, ConfigError
from repro.core.atomic_io import read_artifact
from repro.core.resilience import RetryPolicy
from repro.devtools.chaos import ChaosEvent, ChaosPlan
from repro.service import (
    STORE_NAMESPACE,
    JobQueue,
    JobSpec,
    Scheduler,
    ServiceClient,
    ServiceError,
)
from repro.service.http import ServiceServer, make_server


def _spec(**campaign) -> JobSpec:
    return JobSpec(
        circuit="fig4",
        campaign=CampaignConfig(faults_per_element=2, seed=3).replace(
            **campaign
        ),
    )


def _wait_terminal(queue: JobQueue, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never went terminal")


def _kinds(job) -> list[str]:
    return [event["kind"] for event in job.events]


class TestJobRetry:
    def test_failed_attempt_retries_to_done(self, tmp_path):
        """Attempt 1 fails (chaos), attempt 2 succeeds: done, attempts=2,
        with durable evidence of the failed attempt."""
        queue = JobQueue(tmp_path)
        chaos = ChaosPlan(
            events=(ChaosEvent(site="job", key="fig4", attempts=(1,)),)
        )
        scheduler = Scheduler(
            queue,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            chaos=chaos,
        ).start()
        try:
            job, _ = scheduler.submit(_spec())
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "done"
        assert finished.attempts == 2
        # The attempt-1 error must not outlive the successful retry.
        assert finished.error is None
        kinds = _kinds(finished)
        assert "attempt-failed" in kinds
        assert "retry-scheduled" in kinds
        assert kinds.index("retry-scheduled") < kinds.index("done")
        # The retrying state was walked through and persisted.
        assert "retrying" in kinds
        # Durable evidence of attempt 1 under <root>/failures/.
        evidence = read_artifact(
            tmp_path / "failures" / f"{job.id}-attempt-01.json",
            kind="failure",
        )
        assert evidence is not None
        record = evidence.failure()
        assert record.phase == "job"
        assert record.key == job.id
        assert "ChaosError" in record.error

    def test_exhausted_budget_fails_with_attempts(self, tmp_path):
        queue = JobQueue(tmp_path)
        chaos = ChaosPlan(
            events=(ChaosEvent(site="job", key="fig4", attempts=(1, 2)),)
        )
        scheduler = Scheduler(
            queue,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            chaos=chaos,
        ).start()
        try:
            job, _ = scheduler.submit(_spec())
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "failed"
        assert finished.attempts == 2
        assert "ChaosError" in finished.error
        assert _kinds(finished).count("attempt-failed") == 2
        # One evidence artifact per attempt.
        for attempt in (1, 2):
            path = tmp_path / "failures" / f"{job.id}-attempt-{attempt:02d}.json"
            assert read_artifact(path, kind="failure") is not None

    def test_partial_campaign_is_never_stored(self, tmp_path):
        """Quarantined shards must not poison the dedup store."""
        queue = JobQueue(tmp_path)
        shard_chaos = ChaosPlan(
            events=(ChaosEvent(site="shard", key="0", attempts=(1, 2)),)
        ).to_json()
        spec = _spec(
            shards=2,
            shard_workers=1,
            retry_backoff=0.0,
            chaos=shard_chaos,
        )
        scheduler = Scheduler(
            queue, workers=1, retry=RetryPolicy(max_attempts=1)
        ).start()
        try:
            job, _ = scheduler.submit(spec)
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "failed"
        assert "partial" in _kinds(finished)
        assert "quarantined" in finished.error
        # The store never saw the partial result.
        assert not queue.store.has_artifact(STORE_NAMESPACE, job.fingerprint)


class TestPoisonJobRecovery:
    def test_recovery_is_capped(self, tmp_path):
        """A job found mid-flight restart after restart ends failed."""
        policy = RetryPolicy(max_attempts=2)
        queue = JobQueue(tmp_path, recovery_policy=policy)
        job, _ = queue.submit(_spec())
        queue.transition(job.id, "running")

        # Restart 1: recovered back to queued.
        second = JobQueue(tmp_path, recovery_policy=policy)
        recovered = second.get(job.id)
        assert recovered.state == "queued"
        assert recovered.recoveries == 1
        assert "recovered" in _kinds(recovered)
        second.transition(job.id, "running")

        # Restart 2: over the cap — poisoned, durable evidence.
        third = JobQueue(tmp_path, recovery_policy=policy)
        poisoned = third.get(job.id)
        assert poisoned.state == "failed"
        assert poisoned.recoveries == 2
        assert "poison job" in poisoned.error
        assert "poisoned" in _kinds(poisoned)
        evidence = read_artifact(
            tmp_path / "failures" / f"{job.id}-recovery.json", kind="failure"
        )
        assert evidence is not None
        assert evidence.failure().phase == "recovery"

        # Restart 3: failed is terminal; nothing moves.
        fourth = JobQueue(tmp_path, recovery_policy=policy)
        assert fourth.get(job.id).state == "failed"
        assert fourth.get(job.id).recoveries == 2

    def test_clean_jobs_recover_normally(self, tmp_path):
        """Below the cap, mid-flight jobs simply re-queue (the PR-7
        behaviour, now with a recoveries counter)."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        queue.transition(job.id, "running")
        reloaded = JobQueue(tmp_path).get(job.id)
        assert reloaded.state == "queued"
        assert reloaded.recoveries == 1


class TestClientRetry:
    def _client_with_script(self, outcomes):
        """A client whose transport is scripted: each entry is either an
        exception to raise or a body to return."""
        client = ServiceClient(
            "http://127.0.0.1:1", retries=2, retry_backoff=0.0
        )
        calls = []

        def fake_request_once(method, path, body=None):
            calls.append(path)
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = fake_request_once
        return client, calls

    def test_transient_errors_retry_then_succeed(self):
        client, calls = self._client_with_script(
            [
                ServiceError("boom", 503, transient=True),
                ServiceError("still down", transient=True),
                '{"ok": true}',
            ]
        )
        assert client._json("GET", "/healthz") == {"ok": True}
        assert len(calls) == 3

    def test_non_transient_errors_never_retry(self):
        client, calls = self._client_with_script(
            [ServiceError("bad request", 400, transient=False)]
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/healthz")
        assert excinfo.value.status == 400
        assert len(calls) == 1

    def test_exhausted_transient_budget_raises_the_last_error(self):
        client, calls = self._client_with_script(
            [ServiceError(f"down {i}", 500, transient=True) for i in range(3)]
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/healthz")
        assert excinfo.value.transient
        assert len(calls) == 3  # 1 + retries(2)

    def test_retry_schedule_is_deterministic(self):
        a = ServiceClient("http://x", retries=3, retry_backoff=0.2)
        b = ServiceClient("http://x", retries=3, retry_backoff=0.2)
        assert a.retry.delays("/jobs") == b.retry.delays("/jobs")


class TestHttpChaosAndDeadlines:
    @pytest.fixture()
    def server(self, tmp_path):
        chaos = ChaosPlan(
            events=(ChaosEvent(site="http", key="GET /circuits"),)
        )
        server = make_server(
            tmp_path, workers=1, request_timeout=1.0, chaos=None
        )
        server.chaos = chaos
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_chaos_route_serves_500_and_client_marks_it_transient(
        self, server
    ):
        client = ServiceClient(server.url, retries=1, retry_backoff=0.0)
        with pytest.raises(ServiceError) as excinfo:
            client.circuits()
        assert excinfo.value.status == 500
        assert excinfo.value.transient
        # Other routes are untouched by the plan.
        assert client.health()["ok"] is True

    def test_stalled_request_body_gets_408(self, server):
        """A client that sends headers but stalls mid-body is timed out
        instead of pinning a handler thread forever."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n"
                b'{"circuit"'  # ...and never the rest
            )
            # The status line and the body may arrive in separate
            # segments: read until the server closes the connection.
            chunks = []
            while chunk := sock.recv(4096):
                chunks.append(chunk)
            response = b"".join(chunks).decode("utf-8", "replace")
        assert "408" in response.splitlines()[0]
        assert "timed out" in response

    def test_request_timeout_validation(self, tmp_path):
        queue = JobQueue(tmp_path)
        scheduler = Scheduler(queue, workers=1)
        with pytest.raises(ConfigError):
            ServiceServer(("127.0.0.1", 0), scheduler, request_timeout=0.0)


class TestEventStreamShapes:
    def test_shard_retry_and_heartbeat_events_reach_the_job_log(
        self, tmp_path
    ):
        """Executor-level retries and heartbeats surface as job events."""
        queue = JobQueue(tmp_path)
        shard_chaos = ChaosPlan(
            events=(ChaosEvent(site="shard", key="1", attempts=(1,)),)
        ).to_json()
        spec = _spec(
            shards=2,
            shard_workers=1,
            retry_backoff=0.0,
            heartbeat_interval=0.001,
            chaos=shard_chaos,
        )
        scheduler = Scheduler(
            queue, workers=1, retry=RetryPolicy(max_attempts=1)
        ).start()
        try:
            job, _ = scheduler.submit(spec)
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "done"
        kinds = _kinds(finished)
        assert "shard-retry" in kinds
        assert "heartbeat" in kinds
        retry_event = next(
            e for e in finished.events if e["kind"] == "shard-retry"
        )
        assert retry_event["shard"] == 1
        assert retry_event["reason"] == "exception"
        assert retry_event["next_attempt"] == 2
        # The recovered run stored a complete artifact.
        assert queue.store.has_artifact(STORE_NAMESPACE, job.fingerprint)
        artifact = queue.store.get_artifact(STORE_NAMESPACE, job.fingerprint)
        assert Artifact.from_json(artifact.to_json()).campaign().outcomes
