"""Cache keys are process-invariant: fork, thread and HTTP agree.

The whole incremental-computation story rests on one property: the
fingerprint of a piece of work — and therefore its path inside a
:class:`repro.core.cache.ResultCache` — is a pure function of the work,
never of which process, thread or transport computed it.  These tests
hash the *same spec* in a fork-started worker process, a worker thread,
and through the live HTTP service, and require byte-identical
fingerprints and cache paths everywhere.
"""

import multiprocessing
import shutil
import threading
from pathlib import Path

import pytest

from repro.api import CampaignConfig
from repro.core.cache import ResultCache
from repro.core.sharding import campaign_fingerprint, shard_fingerprint
from repro.service.jobs import STORE_NAMESPACE, JobQueue, JobSpec

#: a service root written by the release that still wrapped the store in
#: its own class; its ``objects/`` entries must keep serving unchanged.
LEGACY_ROOT = Path(__file__).parent / "goldens" / "legacy_root"

#: the one spec every leg hashes — tiny so the HTTP leg stays fast.
CAMPAIGN = CampaignConfig(faults_per_element=1, seed=3)


def _fingerprints() -> dict:
    """Every fingerprint flavour of the shared spec, plus cache paths."""
    spec = JobSpec(circuit="fig4", campaign=CAMPAIGN)
    job = spec.fingerprint()
    return {
        "job": job,
        "campaign": campaign_fingerprint("fig4-mixed", CAMPAIGN, []),
        "shard": shard_fingerprint("fig4-mixed", CAMPAIGN, []),
        # Path layout relative to an arbitrary root: identical roots
        # must map a fingerprint to identical files in every process.
        "store_path": str(
            ResultCache("/tmp/probe").path_for(STORE_NAMESPACE, job)
        ),
    }


def _child_leg(queue) -> None:
    queue.put(_fingerprints())


class TestCrossProcessDeterminism:
    def test_fork_worker_and_thread_agree_with_parent(self):
        parent = _fingerprints()

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        worker = ctx.Process(target=_child_leg, args=(queue,))
        worker.start()
        forked = queue.get(timeout=60)
        worker.join(timeout=60)

        threaded: dict = {}
        thread = threading.Thread(
            target=lambda: threaded.update(_fingerprints())
        )
        thread.start()
        thread.join(timeout=60)

        assert forked == parent
        assert threaded == parent

    def test_store_and_cache_agree_on_the_path(self, tmp_path):
        # The job queue's store is a ResultCache over the service root:
        # a fingerprint lands on the historical objects/ layout, so
        # service roots written before keep serving.
        fingerprint = JobSpec(circuit="fig4", campaign=CAMPAIGN).fingerprint()
        store = JobQueue(tmp_path).store
        assert store.path_for(STORE_NAMESPACE, fingerprint) == (
            tmp_path / "objects" / fingerprint[:2] / f"{fingerprint}.json"
        )


class TestHttpServiceDeterminism:
    def test_service_reports_the_locally_computed_fingerprint(
        self, tmp_path
    ):
        from repro.service import ServiceClient
        from repro.service.http import make_server

        local = JobSpec(circuit="fig4", campaign=CAMPAIGN).fingerprint()
        server = make_server(tmp_path, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            job = client.submit("fig4", campaign=CAMPAIGN.as_dict())
            # The service hashed the spec in its own process; the key it
            # dedups and stores under must equal the local digest.
            assert job["fingerprint"] == local
            finished = client.wait(job["job_id"], timeout=300.0)
            assert finished["state"] == "done", finished.get("error")
            assert finished["artifact"] == local
            assert (tmp_path / "objects" / local[:2] / f"{local}.json").exists()
            # Resubmission over HTTP dedups against that same key.
            again = client.submit("fig4", campaign=CAMPAIGN.as_dict())
            assert again["fingerprint"] == local
            assert again["deduplicated"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_legacy_service_root_serves_its_artifacts(self, tmp_path):
        from repro.service import ServiceClient
        from repro.service.http import make_server

        spec = CampaignConfig(faults_per_element=2, seed=5)
        fingerprint = JobSpec(circuit="fig4", campaign=spec).fingerprint()
        stored = LEGACY_ROOT / "objects" / fingerprint[:2] / f"{fingerprint}.json"
        shutil.copytree(LEGACY_ROOT / "objects", tmp_path / "objects")
        server = make_server(tmp_path, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            assert client.health()["store_entries"] == 1
            # Byte-for-byte: the stored file is served verbatim.
            assert client.artifact_text(fingerprint) == stored.read_text()
            # ...and resubmitting its spec is served, not re-run.
            job = client.submit("fig4", campaign=spec.as_dict())
            assert job["fingerprint"] == fingerprint
            finished = client.wait(job["job_id"], timeout=60.0)
            assert finished["state"] == "done"
            assert finished["served_from_store"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
