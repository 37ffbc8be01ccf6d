"""The service end to end: HTTP round trips against a live server.

One module-scoped server runs one real (small, seeded) fig4 campaign;
every test reuses that execution.  The two acceptance criteria proved
here:

* the artifact fetched over HTTP carries a payload **byte-identical**
  to ``run_campaign`` executed in-process with the same configs;
* resubmitting the identical spec is served from the store without
  recomputation, verified by the scheduler's engine-invocation counters.
"""

import json
import threading

import pytest

from repro.api import Artifact, CampaignConfig
from repro.api.cli import main
from repro.api.session import Workbench
from repro.core import run_campaign
from repro.service import STORE_NAMESPACE, ServiceClient, ServiceError
from repro.service.http import make_server

#: the one campaign every test shares — small, seeded, sharded.
CAMPAIGN = CampaignConfig(faults_per_element=2, seed=11, shards=2)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live server (ephemeral port) over a fresh store root."""
    root = tmp_path_factory.mktemp("service-root")
    server = make_server(root, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, timeout=60.0)


@pytest.fixture(scope="module")
def done_job(client):
    """The shared real execution: submitted once, awaited to ``done``."""
    job = client.submit("fig4", campaign=CAMPAIGN.as_dict())
    finished = client.wait(job["job_id"], timeout=300.0)
    assert finished["state"] == "done", finished.get("error")
    return finished


@pytest.fixture(scope="module")
def direct_payload():
    """The same campaign computed in-process, no service involved."""
    session = Workbench().session()
    mixed = session.circuit("fig4")
    generated = session.run(
        mixed, stages=("sensitivity", "stimulus"), campaign=CAMPAIGN
    )
    result = run_campaign(mixed, generated.report, config=CAMPAIGN)
    return Artifact.from_campaign(result, circuit=mixed.name).payload


class TestRoundTrip:
    def test_served_payload_is_byte_identical_to_direct_run(
        self, client, done_job, direct_payload
    ):
        text = client.artifact_text(done_job["artifact"])
        served = json.loads(text)["payload"]
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct_payload, sort_keys=True
        )

    def test_artifact_route_serves_stored_bytes_verbatim(
        self, service, client, done_job
    ):
        stored = service.scheduler.queue.store.path_for(
            STORE_NAMESPACE, done_job["artifact"]
        ).read_text()
        assert client.artifact_text(done_job["artifact"]) == stored

    def test_artifact_decodes_with_service_provenance(self, client, done_job):
        artifact = client.artifact(done_job["artifact"])
        assert artifact.kind == "campaign"
        service_meta = artifact.meta["service"]
        assert service_meta["job_id"] == done_job["job_id"]
        assert service_meta["fingerprint"] == done_job["fingerprint"]
        # aliases canonicalize before execution ("fig4" is canonical)
        assert service_meta["spec"]["circuit"] == "fig4"

    def test_job_streams_per_shard_progress(self, client, done_job):
        kinds = [e["kind"] for e in client.events(done_job["job_id"])["events"]]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "done"
        assert "generated" in kinds
        assert kinds.count("shard") == CAMPAIGN.shards
        assert "campaign" in kinds


class TestDeduplication:
    def test_resubmission_is_served_from_store_without_recomputation(
        self, client, done_job
    ):
        before = client.health()["scheduler"]
        # A different shard count, the retired ``shard_workers`` an
        # older client still sends, a different alias — same work.
        again = client.submit(
            "fig4-mixed",
            campaign={**CAMPAIGN.as_dict(), "shards": 5, "shard_workers": 3},
        )
        assert again["deduplicated"]
        assert again["fingerprint"] == done_job["fingerprint"]
        finished = client.wait(again["job_id"], timeout=30.0)
        assert finished["state"] == "done"
        assert finished["served_from_store"]
        after = client.health()["scheduler"]
        assert after["executions"] == before["executions"]  # nothing ran

    def test_concurrent_identical_submissions_execute_once(self, client):
        executions_before = client.health()["scheduler"]["executions"]
        campaign = CAMPAIGN.replace(seed=12).as_dict()  # fresh fingerprint
        rows = []
        barrier = threading.Barrier(6)

        def submitter():
            barrier.wait()
            rows.append(client.submit("fig4", campaign=campaign))

        threads = [threading.Thread(target=submitter) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({row["job_id"] for row in rows}) == 1
        assert sum(1 for row in rows if not row["deduplicated"]) == 1
        client.wait(rows[0]["job_id"], timeout=300.0)
        executions_after = client.health()["scheduler"]["executions"]
        assert executions_after == executions_before + 1


class TestErrorContract:
    def test_unknown_circuit_is_404_with_suggestion(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("fig5", campaign={"faults_per_element": 2})
        assert excinfo.value.status == 404  # UnknownNameError -> not found
        assert "did you mean" in str(excinfo.value)

    def test_malformed_config_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("fig4", campaign={"faults_per_element": -1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit("fig4", campaign={"bogus_knob": 1})
        assert excinfo.value.status == 400

    def test_digital_circuit_is_rejected_at_submission(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("c432")
        assert excinfo.value.status == 400
        assert "mixed" in str(excinfo.value)

    def test_unknown_job_and_artifact_are_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("j999999-deadbeef")
        assert excinfo.value.status == 400  # ConfigError: unknown job
        with pytest.raises(ServiceError) as excinfo:
            client.artifact_text("0" * 64)
        assert excinfo.value.status == 404

    def test_bad_fingerprint_shape_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.artifact_text("not-a-digest")
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_circuit_listing_matches_registry(self, service, client):
        names = {row["name"] for row in client.circuits(kind="mixed")}
        registry = service.scheduler.workbench.registry
        assert names == {spec.name for spec in registry.specs("mixed")}


class TestCliAgainstLiveService:
    def test_submit_wait_fetch_round_trip(
        self, service, client, done_job, tmp_path, capsys
    ):
        out = tmp_path / "served.json"
        code = main(
            [
                "submit", "fig4",
                "--url", service.url,
                "--faults-per-element", str(CAMPAIGN.faults_per_element),
                "--seed", str(CAMPAIGN.seed),
                "--shards", str(CAMPAIGN.shards),
                "--wait", "--json", str(out),
            ]
        )
        assert code == 0
        assert "done" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["kind"] == "campaign"
        assert document["meta"]["service"]["fingerprint"] == done_job["fingerprint"]

    def test_status_lists_jobs(self, service, done_job, capsys):
        assert main(["status", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert done_job["job_id"] in out
        assert main(["status", done_job["job_id"], "--url", service.url]) == 0
        assert "done" in capsys.readouterr().out

    def test_fetch_writes_the_served_bytes(
        self, service, client, done_job, tmp_path, capsys
    ):
        out = tmp_path / "fetched.json"
        code = main(
            ["fetch", done_job["artifact"], "--url", service.url,
             "--json", str(out)]
        )
        assert code == 0
        assert out.read_text() == client.artifact_text(done_job["artifact"])

    def test_service_errors_exit_2(self, service, capsys):
        assert main(["submit", "fig5", "--url", service.url]) == 2
        assert "did you mean" in capsys.readouterr().err
        assert main(["fetch", "nope", "--url", service.url]) == 2
        assert "fingerprint" in capsys.readouterr().err
        assert main(["status", "j000000-missing", "--url", service.url]) == 2
        capsys.readouterr()

    def test_unreachable_service_exits_2(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach service" in capsys.readouterr().err
