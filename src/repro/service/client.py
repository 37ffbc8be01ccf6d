"""A thin stdlib client for the service API (the CLI verbs' transport).

:class:`ServiceClient` speaks the :mod:`repro.service.http` JSON
contract over persistent HTTP/1.1 :mod:`http.client` connections — no
new dependencies, usable from scripts and tests alike::

    with ServiceClient("http://127.0.0.1:8080") as client:
        job = client.submit("fig4", campaign={"faults_per_element": 3})
        done = client.wait(job["job_id"])
        artifact = client.artifact(done["artifact"])

Each call takes an idle connection from the client's pool (or opens
one) and returns it after a complete response, so a polling loop pays
one TCP handshake, not one per call.  The pool is a stack shared by
every thread using the client; :meth:`ServiceClient.close` (or leaving
the ``with`` block) closes the idle connections.

Failures surface as :class:`ServiceError` — an :class:`OSError`
subclass carrying the server's one-line JSON error message, so the CLI
maps it (like every other I/O failure) to a clean ``exit 2``.

Transient failures — 5xx responses, connection resets, a server
mid-restart — are retried under a deterministic seeded backoff before
surfacing (``transient`` is set on the final error).  Retrying a
``POST /jobs`` is safe by construction: submission deduplicates on the
spec fingerprint, so a resubmission of work the first (lost) response
already accepted lands on the same job instead of double-executing.
4xx responses are the caller's bug and are never retried.  A reused
connection the server has since closed (idle past its
``request_timeout``, or a restart) fails before any reply arrives; it is
reopened once on the spot, which is not an attempt under the retry
budget.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from ..api.artifact import Artifact
from ..core.resilience import RetryPolicy

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(OSError):
    """The service refused or failed a request (carries HTTP status).

    ``transient`` marks failures that were worth retrying (5xx,
    connection reset, unreachable server) — when set, the client already
    exhausted its retry budget before raising.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        transient: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.transient = transient


class ServiceClient:
    """Typed calls over the service's HTTP/JSON routes."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        retry_backoff: float = 0.2,
        retry_seed: int = 0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: transient failures get ``1 + retries`` total attempts, backed
        #: off deterministically (seeded jitter — reproducible traces).
        self.retry = RetryPolicy(
            max_attempts=1 + max(0, retries),
            base_delay=retry_backoff,
            seed=retry_seed,
        )
        self._scheme, self._netloc, self._prefix = urlsplit(self.base_url)[:3]
        #: idle keep-alive connections, most recently used on top.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections (the client stays usable: the
        next call opens a fresh one)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        """A freshly opened connection; opened here, not lazily by the
        first request, so an unreachable host reads as such."""
        if self._scheme != "http":  # the service speaks plain HTTP only
            raise ServiceError(
                f"cannot reach service at {self.base_url}: "
                f"unknown url type: {self._scheme or self.base_url!r}"
            )
        try:
            connection = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            connection.connect()
        except (OSError, http.client.HTTPException) as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error}",
                transient=isinstance(error, (ConnectionError, TimeoutError)),
            ) from None
        return connection

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        data: bytes | None,
    ) -> http.client.HTTPResponse:
        headers = {} if data is None else {"Content-Type": "application/json"}
        connection.request(method, self._prefix + path, data, headers)
        return connection.getresponse()

    def _request_once(
        self, method: str, path: str, body: dict | None = None
    ) -> str:
        data = None if body is None else json.dumps(body).encode("utf-8")
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if not reused:
            connection = self._connect()
        try:
            try:
                response = self._exchange(connection, method, path, data)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                # RemoteDisconnected included: the server closed this
                # idle connection before any reply.  Reopen it once;
                # replaying a POST /jobs dedups.
                connection.close()
                connection = self._connect()
                response = self._exchange(connection, method, path, data)
            text = response.read().decode("utf-8")
        except ServiceError:
            raise  # the reopen could not connect
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(
                f"connection to {self.base_url} lost: {error}",
                # Our own deadline expiring is not worth a second wait.
                transient=not isinstance(error, TimeoutError),
            ) from None
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        if response.status >= 400:
            try:
                message = json.loads(text)["error"]
            except (ValueError, KeyError, TypeError):
                message = text.strip() or response.reason
            raise ServiceError(
                f"service error ({response.status}): {message}",
                response.status,
                # Server-side trouble is worth retrying; 4xx means the
                # request itself is wrong and will be wrong again.
                transient=response.status >= 500,
            )
        return text

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> str:
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body)
            except ServiceError as error:
                if not error.transient or not self.retry.should_retry(
                    attempt
                ):
                    raise
                time.sleep(self.retry.delay(path, attempt))

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        return json.loads(self._request(method, path, body))

    # -- routes ---------------------------------------------------------
    def health(self) -> dict:
        """``GET /healthz`` — liveness plus scheduler/store counters."""
        return self._json("GET", "/healthz")

    def circuits(self, kind: str | None = None) -> list[dict]:
        """``GET /circuits`` — the server's registry listing."""
        suffix = f"?kind={kind}" if kind else ""
        return self._json("GET", f"/circuits{suffix}")["circuits"]

    def submit(
        self,
        circuit: str,
        campaign: dict | None = None,
        generator: dict | None = None,
        atpg: dict | None = None,
    ) -> dict:
        """``POST /jobs`` — submit a spec; returns the job summary row
        (``deduplicated`` rides along under that key)."""
        spec: dict = {"circuit": circuit}
        if campaign:
            spec["campaign"] = campaign
        if generator:
            spec["generator"] = generator
        if atpg:
            spec["atpg"] = atpg
        document = self._json("POST", "/jobs", spec)
        job = document["job"]
        job["deduplicated"] = document["deduplicated"]
        return job

    def jobs(self, state: str | None = None) -> list[dict]:
        """``GET /jobs`` — summary rows, oldest first."""
        suffix = f"?state={state}" if state else ""
        return self._json("GET", f"/jobs{suffix}")["jobs"]

    def status(self, job_id: str) -> dict:
        """``GET /jobs/{id}`` — the full job document."""
        return self._json("GET", f"/jobs/{job_id}")["job"]

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/{id}`` — cancel queued/running work."""
        return self._json("DELETE", f"/jobs/{job_id}")["job"]

    def events(self, job_id: str, after: int = -1) -> dict:
        """``GET /jobs/{id}/events`` — events with ``seq > after``."""
        return self._json("GET", f"/jobs/{job_id}/events?after={after}")

    def artifact_text(self, fingerprint: str) -> str:
        """``GET /artifacts/{fp}`` — the stored JSON, byte-for-byte."""
        return self._request("GET", f"/artifacts/{fingerprint}")

    def artifact(self, fingerprint: str) -> Artifact:
        """The stored artifact, decoded."""
        return Artifact.from_json(self.artifact_text(fingerprint))

    # -- conveniences ---------------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.1
    ) -> dict:
        """Poll until the job reaches a terminal state; returns it.

        Raises :class:`ServiceError` on timeout — never on a ``failed``
        job (the caller decides what failure means for them).
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job "
                    f"{job_id} (state: {job['state']})"
                )
            time.sleep(poll)

    def stream_events(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.1
    ):
        """Generator over a job's events until it goes terminal."""
        deadline = time.monotonic() + timeout
        after = -1
        while True:
            page = self.events(job_id, after=after)
            for event in page["events"]:
                after = event["seq"]
                yield event
            if page["state"] in ("done", "failed", "cancelled"):
                return
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s streaming job {job_id}"
                )
            time.sleep(poll)
