"""The job model: spec fingerprints, the state machine, durability.

Everything here drives :class:`repro.service.JobQueue` directly — no
scheduler, no HTTP, no real campaigns — so the state machine's contract
is tested in isolation (and in milliseconds).
"""

import json
import os
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.api import Artifact, CampaignConfig, ConfigError, GeneratorConfig
from repro.service import (
    JOB_STATES,
    STORE_NAMESPACE,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobSpec,
    JobStateError,
)

#: a service root written by the release whose campaign configs still
#: carried ``batch`` and ``checkpoint_dir``: one queued job file and one
#: stored artifact.
LEGACY_ROOT = Path(__file__).parent / "goldens" / "legacy_root"


def _spec(**campaign) -> JobSpec:
    return JobSpec(
        circuit="fig4",
        campaign=CampaignConfig(faults_per_element=2, seed=3).replace(**campaign),
    )


def _store(queue: JobQueue, spec: JobSpec) -> Path:
    """Put a stand-in result for ``spec`` into the queue's store."""
    artifact = Artifact(kind="campaign", circuit="fig4", payload={"outcomes": []})
    return queue.store.put_artifact(STORE_NAMESPACE, spec.fingerprint(), artifact)


def _submit_concurrently(queue: JobQueue, spec: JobSpec, threads: int) -> list:
    """Submit ``spec`` from ``threads`` threads released at once, with a
    short switch interval so the submissions interleave."""
    results = []
    barrier = threading.Barrier(threads)

    def submitter():
        barrier.wait()
        results.append(queue.submit(spec))

    workers = [threading.Thread(target=submitter) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(results) == threads
    return results


class TestJobSpec:
    def test_document_round_trip(self):
        spec = _spec(severity_range=(0.5, 2.0), shards=3)
        assert JobSpec.from_document(spec.to_document()) == spec

    def test_partial_document_takes_defaults(self):
        spec = JobSpec.from_document({"circuit": "fig4"})
        assert spec.campaign == CampaignConfig()
        assert spec.generator == GeneratorConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            JobSpec.from_document({"circuit": "fig4", "bogus": {}})
        with pytest.raises(ConfigError):
            JobSpec.from_document({"circuit": "fig4", "campaign": {"nope": 1}})
        with pytest.raises(ConfigError):
            JobSpec.from_document({"campaign": {}})  # no circuit
        with pytest.raises(ConfigError):
            JobSpec.from_document({"circuit": "fig4", "campaign": [1, 2]})

    def test_fingerprint_covers_outcome_relevant_fields(self):
        base = _spec()
        assert base.fingerprint() == _spec().fingerprint()
        assert base.fingerprint() != _spec(seed=4).fingerprint()
        assert base.fingerprint() != _spec(faults_per_element=3).fingerprint()

    def test_fingerprint_matches_the_recorded_release(self):
        """Dedup keys name artifacts already stored in service roots."""
        assert JobSpec(circuit="fig4").fingerprint() == (
            "5fd91acf099f3b5c1a17825c96821cd324df863b7d6b0487df56fe0249e2a683"
        )
        assert _spec(faults_per_element=2, seed=5).fingerprint() == (
            "2f86303e7dd930c02d6b71a48d517a16e8572273facaf6f03cb551b4f30dd57f"
        )

    def test_from_document_drops_retired_campaign_fields(self):
        document = _spec().to_document()
        document["campaign"].update(
            batch=False, checkpoint_dir="/tmp/ck", factor_cache_size=8
        )
        assert JobSpec.from_document(document) == _spec()
        document["campaign"]["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            JobSpec.from_document(document)

    def test_from_document_drops_retired_selector_fields(self):
        # Job files of earlier releases chose the campaign, backend and
        # digital engines; every campaign now runs the defaults, so the
        # spec and its dedup key are those of the defaults.
        document = _spec().to_document()
        document["campaign"].update(
            engine="reference", backend="sparse", digital_engine="reference"
        )
        document["atpg"]["engine"] = "reference"
        document["atpg"]["ordering"] = "declaration"
        spec = JobSpec.from_document(document)
        assert spec == _spec()
        assert spec.fingerprint() == _spec().fingerprint()

    def test_from_document_drops_retired_resilience_fields(self):
        # Job files of the releases that retried shards in-process
        # recorded the retry budget, the quarantine switch and a fault
        # injection plan; none of them changes what a campaign computes,
        # so the spec and its recorded dedup key are those without them.
        document = _spec(faults_per_element=2, seed=5).to_document()
        document["campaign"].update(
            shard_attempts=3,
            retry_backoff=0.5,
            quarantine=False,
            chaos='{"events": []}',
        )
        spec = JobSpec.from_document(document)
        assert spec == _spec(faults_per_element=2, seed=5)
        assert spec.fingerprint() == (
            "2f86303e7dd930c02d6b71a48d517a16e8572273facaf6f03cb551b4f30dd57f"
        )

    def test_fingerprint_excludes_fanout_knobs(self):
        """Shard and cache knobs never change outcomes —
        so they must not defeat deduplication."""
        base = _spec()
        assert base.fingerprint() == _spec(shards=7).fingerprint()
        assert (
            base.fingerprint()
            == _spec(cache_dir="/tmp/elsewhere").fingerprint()
        )


class TestStateMachine:
    def test_lifecycle_queued_running_done(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, deduplicated = queue.submit(_spec())
        assert not deduplicated
        assert job.state == "queued"
        queue.transition(job.id, "running")
        assert queue.get(job.id).started is not None
        queue.transition(job.id, "done")
        assert queue.get(job.id).finished is not None
        kinds = [e["kind"] for e in queue.get(job.id).events]
        assert kinds == ["submitted", "running", "done"]

    @pytest.mark.parametrize(
        "path",
        [
            ("queued", "done"),          # must pass through running
            ("queued", "failed"),
            ("running", "queued"),       # no going back
            ("running", "running"),      # a job is claimed once
            ("running", "retrying"),     # retired: a job runs once
            ("done", "running"),         # terminal states are terminal
            ("done", "cancelled"),
            ("failed", "running"),
            ("cancelled", "queued"),
        ],
    )
    def test_illegal_transitions_rejected(self, tmp_path, path):
        start, target = path
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        # Walk the job legally into the starting state first.
        legal_walk = {
            "queued": (),
            "running": ("running",),
            "done": ("running", "done"),
            "failed": ("running", "failed"),
            "cancelled": ("cancelled",),
        }[start]
        for state in legal_walk:
            queue.transition(job.id, state)
        with pytest.raises(JobStateError):
            queue.transition(job.id, target)
        assert queue.get(job.id).state == start  # unchanged on rejection

    def test_unknown_state_and_job_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        with pytest.raises(JobStateError):
            queue.transition(job.id, "paused")
        with pytest.raises(ConfigError):
            queue.transition("j999999-deadbeef", "running")
        with pytest.raises(ConfigError):
            queue.get("nope")
        with pytest.raises(JobStateError):
            queue.jobs(state="bogus")

    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        assert queue.cancel(job.id).state == "cancelled"
        with pytest.raises(JobStateError):
            queue.cancel(job.id)  # already terminal

    def test_cancel_running_sets_the_flag(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        queue.transition(job.id, "running")
        cancelled = queue.cancel(job.id)
        assert cancelled.state == "running"  # best-effort: still running
        assert cancelled.cancel_requested
        queue.transition(job.id, "cancelled")
        assert queue.get(job.id).state == "cancelled"


class TestDeduplication:
    def test_active_job_absorbs_identical_submissions(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_spec())
        second, deduplicated = queue.submit(_spec(shards=5))  # same work
        assert deduplicated
        assert second.id == first.id
        assert len(queue.jobs()) == 1

    def test_concurrent_identical_submissions_create_one_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        results = _submit_concurrently(queue, _spec(), 8)
        assert len({job.id for job, _ in results}) == 1
        assert sum(1 for _, deduplicated in results if not deduplicated) == 1
        assert len(queue.jobs()) == 1

    def test_concurrent_resubmissions_of_stored_work_share_one_job(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path)
        _store(queue, _spec())
        results = _submit_concurrently(queue, _spec(), 8)
        assert len({job.id for job, _ in results}) == 1
        assert all(deduplicated for _, deduplicated in results)
        assert len(list((tmp_path / "jobs").iterdir())) == 1

    def test_stored_result_births_a_done_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec()
        artifact = Artifact(kind="campaign", circuit="fig4", payload={"outcomes": []})
        queue.store.put_artifact(STORE_NAMESPACE, spec.fingerprint(), artifact)
        job, deduplicated = queue.submit(spec)
        assert deduplicated
        assert job.state == "done"
        assert job.served_from_store
        assert job.artifact == spec.fingerprint()

    def test_resubmissions_of_stored_work_reuse_one_served_job(self, tmp_path):
        """Resubmitting stored work mints no job and writes no file."""
        queue, spec = JobQueue(tmp_path), _spec()
        _store(queue, spec)
        results = [queue.submit(spec) for _ in range(20)]
        assert all(deduplicated for _, deduplicated in results)
        assert len({job.id for job, _ in results}) == 1
        (job, _) = results[0]
        assert [j.id for j in queue.jobs()] == [job.id]
        assert sorted(p.name for p in (tmp_path / "jobs").iterdir()) == [
            f"{job.id}.json"
        ]
        assert [e["kind"] for e in job.events] == ["submitted", "done"]

    def test_served_job_is_reused_after_restart(self, tmp_path):
        spec = _spec()
        queue = JobQueue(tmp_path)
        _store(queue, spec)
        served, _ = queue.submit(spec)
        again, deduplicated = JobQueue(tmp_path).submit(spec)
        assert deduplicated
        assert again.id == served.id
        assert len(list((tmp_path / "jobs").iterdir())) == 1

    def test_lowest_id_served_job_wins(self, tmp_path):
        """A root written by an earlier release holds one served job per
        resubmission; the earliest of them is the one reused."""
        spec = _spec()
        queue = JobQueue(tmp_path)
        _store(queue, spec)
        served, _ = queue.submit(spec)
        later = Job.from_document(
            {**served.to_document(), "job_id": f"j000009-{served.id[8:]}"}
        )
        queue._persist(later)
        again, _ = JobQueue(tmp_path).submit(spec)
        assert again.id == served.id

    @pytest.mark.parametrize("damage", ["evicted", "torn"])
    def test_unreadable_store_entry_is_not_served(self, tmp_path, damage):
        """A ``cache gc``'d or torn entry re-executes instead of handing
        out a ``done`` job whose artifact would 404."""
        queue, spec = JobQueue(tmp_path), _spec()
        path = _store(queue, spec)
        served, _ = queue.submit(spec)
        if damage == "evicted":
            os.utime(path, (0, 0))  # predates the sweep, as gc requires
            queue.store.gc(keep=[], namespace=STORE_NAMESPACE)
            assert not path.exists()
        else:
            path.write_text(path.read_text()[:40])
        fresh, deduplicated = queue.submit(spec)
        assert not deduplicated
        assert fresh.id != served.id
        assert fresh.state == "queued"
        assert not fresh.served_from_store

    def test_active_job_wins_over_served_job(self, tmp_path):
        queue, spec = JobQueue(tmp_path), _spec()
        path = _store(queue, spec)
        served, _ = queue.submit(spec)
        path.unlink()
        active, _ = queue.submit(spec)  # the store lost it: executes
        _store(queue, spec)  # and the store has it again meanwhile
        again, deduplicated = queue.submit(spec)
        assert deduplicated
        assert again.id == active.id != served.id

    def test_terminal_jobs_do_not_absorb_resubmissions(self, tmp_path):
        """A failed job must not swallow a retry of the same work."""
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_spec())
        queue.transition(first.id, "running")
        queue.transition(first.id, "failed", error="boom")
        retry, deduplicated = queue.submit(_spec())
        assert not deduplicated
        assert retry.id != first.id
        assert retry.state == "queued"


class TestDurability:
    def test_restart_reloads_jobs_and_requeues_running(self, tmp_path):
        queue = JobQueue(tmp_path)
        queued, _ = queue.submit(_spec(seed=1))
        running, _ = queue.submit(_spec(seed=2))
        done, _ = queue.submit(_spec(seed=3))
        queue.transition(running.id, "running")
        queue.transition(done.id, "running")
        queue.transition(done.id, "done")

        reloaded = JobQueue(tmp_path)  # the "restart"
        states = {job.id: job.state for job in reloaded.jobs()}
        assert states[queued.id] == "queued"
        assert states[done.id] == "done"
        # The job caught mid-run re-queues (its process died); the
        # recovery is recorded in its event log.
        assert states[running.id] == "queued"
        kinds = [e["kind"] for e in reloaded.get(running.id).events]
        assert kinds[-1] == "recovered"

    def test_job_recorded_by_the_earlier_release_reloads(self, tmp_path):
        """A queued job whose spec still carries retired fields
        (``batch``, ``checkpoint_dir``, the engine selector ``engine``,
        the process fan-out's
        ``shard_workers``/``shard_timeout``/``heartbeat_interval`` and
        ``max_workers``) survives a restart as the same job, under its
        stored fingerprint."""
        recorded = json.loads(
            (LEGACY_ROOT / "jobs" / "j000001-e2ca0491.json").read_text()
        )["payload"]["spec"]["campaign"]
        assert {
            "batch", "checkpoint_dir", "engine", "heartbeat_interval",
            "max_workers", "shard_timeout", "shard_workers",
        } <= set(recorded)
        shutil.copytree(LEGACY_ROOT, tmp_path / "root")
        queue = JobQueue(tmp_path / "root")
        job = queue.get("j000001-e2ca0491")
        assert job.state == "queued"
        assert job.spec == JobSpec(
            circuit="fig4",
            campaign=CampaignConfig(faults_per_element=1, seed=3, shards=2),
        )
        assert job.fingerprint == job.spec.fingerprint() == (
            "e2ca04916cd02b98047c67f3507514ee058f0253eb15f634f7139f1c6c2749a6"
        )

    def test_restart_never_reissues_job_ids(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_spec(seed=1))
        reloaded = JobQueue(tmp_path)
        second, _ = reloaded.submit(_spec(seed=2))
        assert second.id != first.id
        assert second.id > first.id  # ids keep sorting by submission

    def test_torn_job_files_are_skipped(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        (tmp_path / "jobs" / "j999999-feedface.json").write_text('{"torn')
        reloaded = JobQueue(tmp_path)
        assert [j.id for j in reloaded.jobs()] == [job.id]


class TestEvents:
    def test_events_since_is_incremental(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        queue.append_event(job.id, "shard", shard=0)
        queue.append_event(job.id, "shard", shard=1)
        assert [e["kind"] for e in queue.events_since(job.id)] == [
            "submitted", "shard", "shard",
        ]
        tail = queue.events_since(job.id, after=0)
        assert [e["shard"] for e in tail] == [0, 1]
        assert queue.events_since(job.id, after=tail[-1]["seq"]) == []

    def test_stream_yields_until_terminal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())

        def worker():
            queue.transition(job.id, "running")
            queue.append_event(job.id, "shard", shard=0)
            queue.transition(job.id, "done")

        thread = threading.Thread(target=worker)
        thread.start()
        kinds = [e["kind"] for e in queue.stream(job.id, timeout=10.0)]
        thread.join()
        assert kinds == ["submitted", "running", "shard", "done"]

    def test_state_constants_are_consistent(self):
        assert set(TERMINAL_STATES) < set(JOB_STATES)

    def test_job_document_round_trip_keeps_events(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_spec())
        queue.append_event(job.id, "shard", shard=0)
        restored = Job.from_document(queue.get(job.id).to_document())
        assert restored == queue.get(job.id)
        assert [e["kind"] for e in restored.events] == ["submitted", "shard"]
