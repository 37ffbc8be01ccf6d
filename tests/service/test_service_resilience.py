"""Service-layer resilience: failed jobs, poison jobs, client retries.

Failures are injected with ``monkeypatch``: a shard that raises fails
its job once with durable evidence, a route that raises serves a 500
the client marks transient, and job files written mid-flight (by this
release or an earlier one) drive restart recovery and its poison cap.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import CampaignConfig, ConfigError
from repro.api.cli import main
from repro.core import sharding
from repro.core.atomic_io import read_artifact
from repro.core.resilience import RetryPolicy
from repro.service import (
    STORE_NAMESPACE,
    JobQueue,
    JobSpec,
    Scheduler,
    ServiceClient,
    ServiceError,
)
from repro.service.http import ServiceServer, _ServiceHandler, make_server


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


class TestJobFailure:
    def test_failing_job_fails_after_one_attempt(self, tmp_path, monkeypatch):
        """A job whose shard raises goes running -> failed once, leaves
        one failure artifact and never enters the store."""
        executed = []

        def failing(program, faults, index):
            executed.append(index)
            raise RuntimeError("singular system")

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        queue = JobQueue(tmp_path)
        scheduler = Scheduler(queue, workers=1).start()
        try:
            job, _ = scheduler.submit(_spec(shards=2))
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "failed"
        assert finished.attempts == 1
        assert executed == [0]
        assert "ShardExecutionError: shard 0" in finished.error
        assert "singular system" in finished.error
        assert _kinds(finished) == [
            "submitted", "running", "generated", "failed",
        ]
        failures = sorted((tmp_path / "failures").iterdir())
        assert [path.name for path in failures] == [f"{job.id}-job.json"]
        record = read_artifact(failures[0], kind="failure").failure()
        assert record.phase == "job"
        assert record.key == job.id
        assert record.fingerprint == job.fingerprint
        assert record.error == finished.error
        assert not queue.store.has_artifact(STORE_NAMESPACE, job.fingerprint)


    def test_worker_survives_a_failed_job(self, tmp_path, monkeypatch):
        """A failure ends its own job only: the single worker that ran
        it goes on to run the next job to done."""
        execute = sharding._execute_shard
        broken = [True]

        def failing_while_broken(program, faults, index):
            if broken[0]:
                raise RuntimeError("singular system")
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing_while_broken)
        queue = JobQueue(tmp_path)
        scheduler = Scheduler(queue, workers=1).start()
        try:
            first, _ = scheduler.submit(_spec(shards=2))
            assert _wait_terminal(queue, first.id).state == "failed"
            broken[0] = False
            second, deduplicated = scheduler.submit(_spec(shards=2, seed=4))
            assert not deduplicated
            assert _wait_terminal(queue, second.id).state == "done"
        finally:
            scheduler.stop()
        assert scheduler.stats()["executions"] == 2
        assert queue.store.has_artifact(STORE_NAMESPACE, second.fingerprint)
        assert not queue.store.has_artifact(
            STORE_NAMESPACE, first.fingerprint
        )

    def test_resubmission_after_a_fix_resumes_from_cached_shards(
        self, tmp_path, monkeypatch
    ):
        """A failed job does not absorb its resubmission; the new job
        serves the shards the failed one cached and executes the rest."""
        execute = sharding._execute_shard

        def failing(program, faults, index):
            if index == 1:
                raise RuntimeError("singular system")
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        spec = _spec(shards=3, cache_dir=str(tmp_path / "shards"))
        queue = JobQueue(tmp_path / "root")
        scheduler = Scheduler(queue, workers=1).start()
        try:
            failed, _ = scheduler.submit(spec)
            assert _wait_terminal(queue, failed.id).state == "failed"
            monkeypatch.undo()
            job, deduplicated = scheduler.submit(spec)
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert not deduplicated
        assert job.id != failed.id
        assert finished.state == "done"
        assert [
            (event["shard"], event["resumed"])
            for event in finished.events
            if event["kind"] == "shard"
        ] == [(0, True), (1, False), (2, False)]
        assert queue.store.has_artifact(STORE_NAMESPACE, job.fingerprint)

    def test_cancel_between_shards_is_not_a_failure(
        self, tmp_path, monkeypatch
    ):
        """A cancel requested while a shard runs stops the job at the
        next shard boundary: it ends cancelled, not failed, with no
        failure evidence and nothing stored."""
        execute = sharding._execute_shard
        queue = JobQueue(tmp_path)
        executed = []

        def cancel_during(program, faults, index):
            executed.append(index)
            if index == 0:
                (running,) = queue.jobs(state="running")
                queue.cancel(running.id)
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", cancel_during)
        scheduler = Scheduler(queue, workers=1).start()
        try:
            job, _ = scheduler.submit(_spec(shards=2))
            finished = _wait_terminal(queue, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "cancelled"
        assert finished.error is None
        assert executed == [0]
        assert _kinds(finished)[-2:] == ["cancel-requested", "cancelled"]
        assert not (tmp_path / "failures").exists()
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


    def test_retrying_job_of_an_earlier_release_is_mid_flight(
        self, tmp_path
    ):
        """An earlier release parked jobs between retry attempts as
        ``retrying``.  Such a job file loads as mid-flight: it re-queues
        and counts against the poison budget like ``running``."""
        policy = RetryPolicy(max_attempts=2)
        queue = JobQueue(tmp_path, recovery_policy=policy)
        job, _ = queue.submit(_spec())
        path = tmp_path / "jobs" / f"{job.id}.json"

        def park_as_retrying():
            document = json.loads(path.read_text())
            document["payload"]["state"] = "retrying"
            document["payload"]["error"] = "RuntimeError: attempt 1"
            path.write_text(json.dumps(document))

        park_as_retrying()
        recovered = JobQueue(tmp_path, recovery_policy=policy).get(job.id)
        assert recovered.state == "queued"
        assert recovered.recoveries == 1
        assert recovered.error is None
        assert _kinds(recovered)[-1] == "recovered"

        park_as_retrying()
        poisoned = JobQueue(tmp_path, recovery_policy=policy).get(job.id)
        assert poisoned.state == "failed"
        assert poisoned.recoveries == 2
        assert "poison job" in poisoned.error
        assert read_artifact(
            tmp_path / "failures" / f"{job.id}-recovery.json", kind="failure"
        ) is not None

    def test_retrying_job_of_an_earlier_release_runs_to_done(
        self, tmp_path
    ):
        """Once re-queued, such a job is ordinary work: a scheduler on
        the restarted queue runs it to done and stores its result."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        path = tmp_path / "jobs" / f"{job.id}.json"
        document = json.loads(path.read_text())
        document["payload"]["state"] = "retrying"
        path.write_text(json.dumps(document))

        restarted = JobQueue(tmp_path)
        scheduler = Scheduler(restarted, workers=1).start()
        try:
            finished = _wait_terminal(restarted, job.id)
        finally:
            scheduler.stop()
        assert finished.state == "done"
        assert finished.recoveries == 1
        assert restarted.store.has_artifact(STORE_NAMESPACE, job.fingerprint)


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


class TestHttpErrorsAndDeadlines:
    @pytest.fixture()
    def server(self, tmp_path):
        server = make_server(tmp_path, workers=1, request_timeout=1.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_failing_route_serves_500_and_client_marks_it_transient(
        self, server, monkeypatch
    ):
        def failing(self, query):
            raise RuntimeError("registry unavailable")

        monkeypatch.setattr(_ServiceHandler, "_get_circuits", failing)
        client = ServiceClient(server.url, retries=1, retry_backoff=0.0)
        with pytest.raises(ServiceError) as excinfo:
            client.circuits()
        assert excinfo.value.status == 500
        assert excinfo.value.transient
        assert "RuntimeError: registry unavailable" in str(excinfo.value)
        # Other routes are untouched.
        assert client.health()["ok"] is True

    def test_failed_job_is_reported_over_http(self, server, monkeypatch):
        """A failed job serves its state, error and events like any
        other job; it has no artifact, so fetching one is a 404."""

        def failing(program, faults, index):
            raise RuntimeError("singular system")

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        client = ServiceClient(server.url, retries=0)
        submitted = client.submit(
            "fig4", campaign=_spec(shards=2).campaign.as_dict()
        )
        job = client.wait(submitted["job_id"], timeout=120.0)
        assert job["state"] == "failed"
        assert job["attempts"] == 1
        assert "ShardExecutionError: shard 0" in job["error"]
        page = client.events(job["job_id"])
        assert page["state"] == "failed"
        assert page["events"][-1]["kind"] == "failed"
        with pytest.raises(ServiceError) as excinfo:
            client.artifact_text(job["fingerprint"])
        assert excinfo.value.status == 404
        assert not excinfo.value.transient

    def test_cli_waits_on_a_failed_job_with_exit_1(
        self, server, monkeypatch, capsys
    ):
        """``submit --wait`` and ``status`` report a failed job's error
        and exit 1: the job failed, the command did not."""

        def failing(program, faults, index):
            raise RuntimeError("singular system")

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        argv = [
            "--url", server.url,
            "--faults-per-element", "2", "--seed", "3", "--shards", "2",
        ]
        assert main(["submit", "fig4", "--wait", *argv]) == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "singular system" in out
        (job,) = ServiceClient(server.url).jobs()
        assert main(["status", job["job_id"], "--url", server.url]) == 1
        assert "singular system" in capsys.readouterr().out

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
