"""The client's keep-alive transport and the server's side of it.

A :class:`repro.service.ServiceClient` sends every call down a pooled
HTTP/1.1 connection.  These tests pin what that buys and what it must
not break: one connection per client, no Nagle stall per reply, a stale
connection reopened without touching the retry budget, a stopped server
that answers nothing, and ``GET /artifacts`` serving the one read it
validated.
"""

import socket
import threading
import time

import pytest

from repro.api import Artifact, CampaignConfig
from repro.service import STORE_NAMESPACE, ServiceClient, ServiceError, fingerprint_of
from repro.service.http import _ServiceHandler, make_server


@pytest.fixture()
def serve(tmp_path):
    """Start servers on demand (``serve(request_timeout=...)``); each is
    stopped at teardown (stopping a stopped server is harmless)."""
    started = []

    def start(request_timeout=30.0):
        server = make_server(
            tmp_path / f"root{len(started)}",
            workers=1,
            request_timeout=request_timeout,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _count_connections(server, monkeypatch) -> list:
    """Record every connection the server accepts from now on."""
    accepted = []
    original = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        original(request, client_address)

    monkeypatch.setattr(server, "process_request", counting)
    return accepted


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestKeepAlive:
    def test_thirty_calls_open_one_connection(self, serve, monkeypatch):
        server = serve()
        accepted = _count_connections(server, monkeypatch)
        with ServiceClient(server.url) as client:
            for _ in range(10):
                assert client.health()["ok"] is True
                assert client.circuits("mixed")
                assert client.jobs() == []
        assert len(accepted) == 1

    def test_replies_do_not_stall_on_nagle(self, serve):
        """Headers and body go out in two writes; with Nagle on, each
        reply would wait ~40 ms for the client's delayed ACK."""
        server = serve()
        with ServiceClient(server.url) as client:
            client.health()  # connect outside the timed loop
            start = time.perf_counter()
            for _ in range(20):
                client.health()
            elapsed = time.perf_counter() - start
        assert elapsed < 0.4, f"20 calls took {elapsed:.3f}s"

    def test_close_leaves_no_idle_connection(self, serve):
        server = serve()
        client = ServiceClient(server.url)
        client.health()
        idle = list(client._idle)
        assert len(idle) == 1
        client.close()
        assert client._idle == []
        assert all(connection.sock is None for connection in idle)
        # The server saw the close and released the handler thread.
        assert _wait_until(lambda: not server._connections)
        # A closed client is still usable: the next call reconnects.
        assert client.health()["ok"] is True
        client.close()


class TestStaleConnections:
    def test_idle_timeout_is_reopened_outside_the_retry_budget(
        self, serve, monkeypatch
    ):
        server = serve(request_timeout=0.5)
        accepted = _count_connections(server, monkeypatch)
        # retries=0: the stale connection must be reopened by the
        # transport itself, not by a retry.
        with ServiceClient(server.url, retries=0) as client:
            client.health()
            time.sleep(1.0)  # the server drops the idle connection
            assert _wait_until(lambda: not server._connections)
            campaign = CampaignConfig(faults_per_element=2, seed=5).as_dict()
            job = client.submit("fig4", campaign=campaign)
            assert job["deduplicated"] is False
            assert [row["job_id"] for row in client.jobs()] == [job["job_id"]]
        assert len(accepted) == 2

    def test_408_closes_the_connection_and_the_next_call_reconnects(
        self, serve, monkeypatch
    ):
        def stalled(self, query):
            raise TimeoutError("timed out")

        server = serve()
        accepted = _count_connections(server, monkeypatch)
        monkeypatch.setattr(_ServiceHandler, "_get_circuits", stalled)
        with ServiceClient(server.url, retries=0) as client:
            client.health()  # the connection is kept alive...
            with pytest.raises(ServiceError) as excinfo:
                client.circuits()  # ...until a 408 ends it
            assert excinfo.value.status == 408
            assert not excinfo.value.transient
            assert client._idle == []
            assert client.health()["ok"] is True
        assert len(accepted) == 2


class TestStoppedServer:
    def test_open_connection_is_not_answered_after_stop(self, serve):
        server = serve()
        client = ServiceClient(server.url, retries=0)
        assert client.health()["ok"] is True
        server.shutdown()
        server.server_close()
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status is None  # no reply of any kind
        client.close()

    def test_raw_keep_alive_socket_reads_end_of_stream(self, serve):
        server = serve()
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(request)
            # Headers and body arrive as separate segments: read the
            # whole first reply so nothing of it is left to read later.
            assert reader.readline().startswith(b"HTTP/1.1 200")
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            assert len(reader.read(length)) == length
            server.shutdown()
            try:
                sock.sendall(request)
                reply = reader.read1(4096)
            except ConnectionError:
                reply = b""
            reader.close()
        assert reply == b""


class TestArtifactRoute:
    def _store_text(self, server, tag: str, text: str) -> str:
        fingerprint = fingerprint_of({"tag": tag})
        path = server.scheduler.queue.store.path_for(STORE_NAMESPACE, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return fingerprint

    def test_good_artifact_is_served_byte_identical(self, serve):
        server = serve()
        artifact = Artifact(
            kind="experiment",
            circuit=None,
            payload={"name": "x", "rendered": "x", "seconds": 0.0},
        )
        text = artifact.to_json() + "\n"
        fingerprint = self._store_text(server, "good", text)
        with ServiceClient(server.url) as client:
            assert client.artifact_text(fingerprint) == text

    def test_torn_artifact_is_404(self, serve):
        server = serve()
        artifact = Artifact(
            kind="experiment",
            circuit=None,
            payload={"name": "x", "rendered": "x", "seconds": 0.0},
        )
        torn = (artifact.to_json() + "\n")[:20]
        fingerprint = self._store_text(server, "torn", torn)
        with ServiceClient(server.url) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.artifact_text(fingerprint)
        assert excinfo.value.status == 404
        assert not excinfo.value.transient
