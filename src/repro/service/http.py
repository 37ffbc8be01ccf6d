"""The stdlib HTTP/JSON front end: CLI verbs as routes, nothing more.

Built on :mod:`http.server` (``ThreadingHTTPServer``) — the container's
constraint is "no new dependencies", and the service's work is
CPU-bound campaign execution, so a thread-per-request front end over
the bounded scheduler pool is the honest architecture.

Routes (all JSON)::

    GET  /healthz                 liveness + scheduler/store counters
    GET  /circuits                the registry, as the CLI `list` verb
    POST /jobs                    submit a JobSpec document -> job
    GET  /jobs                    all jobs (summary rows)
    GET  /jobs/{id}               one job document
    DELETE /jobs/{id}             cancel (immediate/best-effort)
    GET  /jobs/{id}/events?after=N   incremental event poll
    GET  /artifacts/{fingerprint}    the stored artifact, verbatim

Error contract: every failure is a JSON body ``{"error": "..."}`` with
400 for bad requests (unknown circuit, malformed config, bad JSON),
404 for unknown jobs/artifacts/routes, 405 for wrong methods, 408 when
a request's socket stalls past the server's ``request_timeout``.  The
artifact route returns the stored JSON byte-for-byte — the round-trip
equality guarantee ("fetched over HTTP == computed in-process") depends
on the server never re-encoding stored payloads.

Resilience: each request socket carries a deadline (a stalled or
half-dead client cannot pin a handler thread forever), and the server
accepts a :class:`repro.devtools.chaos.ChaosPlan` whose ``http`` site
fires per-route injected failures (surfacing as 500s) — how the
client's retry path is exercised deterministically.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..api.config import ConfigError, UnknownNameError
from .jobs import STORE_NAMESPACE, Job, JobQueue, JobSpec, Scheduler

__all__ = ["ServiceServer", "make_server", "serve"]


def job_summary(job: Job) -> dict:
    """The compact job row used by ``GET /jobs`` and submissions."""
    return {
        "job_id": job.id,
        "state": job.state,
        "circuit": job.spec.circuit,
        "fingerprint": job.fingerprint,
        "created": job.created,
        "started": job.started,
        "finished": job.finished,
        "error": job.error,
        "artifact": job.artifact,
        "served_from_store": job.served_from_store,
        "attempts": job.attempts,
        "n_events": len(job.events),
    }


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's scheduler/queue/store."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: str, content_type: str = "application/json") -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_json(self, status: int, document: dict) -> None:
        self._send(status, json.dumps(document, sort_keys=True) + "\n")

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigError("request body must be a JSON object")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigError(f"request body is not valid JSON: {error}") from None
        if not isinstance(document, dict):
            raise ConfigError("request body must be a JSON object")
        return document

    # -- dispatch -------------------------------------------------------
    def setup(self) -> None:
        # A per-request socket deadline: a stalled client (or a torn
        # network) raises TimeoutError inside the handler instead of
        # pinning this thread forever.
        self.timeout = self.server.request_timeout
        super().setup()
        if self.server.request_timeout is not None:
            self.connection.settimeout(self.server.request_timeout)

    def _route(self, method: str) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            chaos = self.server.chaos
            if chaos is not None:
                # Chaos 'raise' here surfaces as the generic 500 below —
                # exactly the transient server error the client retries.
                chaos.fire(
                    "http", f"{method} {url.path}", in_process=True
                )
            handler = self._resolve(method, parts)
            if handler is None:
                self._send_error(404, f"no route {method} {url.path}")
                return
            handler(query)
        except UnknownNameError as error:
            self._send_error(404, str(error))
        except ConfigError as error:
            self._send_error(400, str(error))
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to salvage
        except TimeoutError as error:
            # The socket deadline fired mid-request: try to tell the
            # client, then let the connection die.
            try:
                self._send_error(408, f"request timed out: {error}")
            except OSError:
                pass
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 — a request must not kill the server
            self._send_error(500, f"{type(error).__name__}: {error}")

    def _resolve(self, method: str, parts: list[str]):
        if parts == ["healthz"] and method == "GET":
            return self._get_healthz
        if parts == ["circuits"] and method == "GET":
            return self._get_circuits
        if parts == ["jobs"]:
            if method == "GET":
                return self._get_jobs
            if method == "POST":
                return self._post_jobs
            raise ConfigError(f"method {method} not allowed on /jobs")
        if len(parts) == 2 and parts[0] == "jobs":
            job_id = parts[1]
            if method == "GET":
                return lambda q: self._get_job(job_id, q)
            if method == "DELETE":
                return lambda q: self._delete_job(job_id, q)
            raise ConfigError(f"method {method} not allowed on /jobs/{{id}}")
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            if method == "GET":
                return lambda q: self._get_events(parts[1], q)
            raise ConfigError(f"method {method} not allowed on events")
        if len(parts) == 2 and parts[0] == "artifacts" and method == "GET":
            return lambda q: self._get_artifact(parts[1], q)
        return None

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    # -- routes ---------------------------------------------------------
    def _get_healthz(self, query) -> None:
        scheduler = self.server.scheduler
        self._send_json(
            200,
            {
                "ok": True,
                "scheduler": scheduler.stats(),
                "store_entries": len(
                    scheduler.queue.store.fingerprints(STORE_NAMESPACE)
                ),
                "jobs": len(scheduler.queue.jobs()),
            },
        )

    def _get_circuits(self, query) -> None:
        kind = query.get("kind", [None])[0]
        registry = self.server.scheduler.workbench.registry
        if kind is not None and kind not in ("mixed", "analog", "digital"):
            raise ConfigError(
                f"kind must be mixed, analog or digital, got {kind!r}"
            )
        self._send_json(
            200,
            {
                "circuits": [
                    {
                        "name": spec.name,
                        "kind": spec.kind,
                        "description": spec.description,
                        "aliases": list(spec.aliases),
                    }
                    for spec in registry.specs(kind)
                ]
            },
        )

    def _post_jobs(self, query) -> None:
        spec = JobSpec.from_document(self._read_body())
        job, deduplicated = self.server.scheduler.submit(spec)
        self._send_json(
            202 if not deduplicated else 200,
            {"job": job_summary(job), "deduplicated": deduplicated},
        )

    def _get_jobs(self, query) -> None:
        state = query.get("state", [None])[0]
        jobs = self.server.scheduler.queue.jobs(state=state)
        self._send_json(200, {"jobs": [job_summary(job) for job in jobs]})

    def _get_job(self, job_id: str, query) -> None:
        job = self.server.scheduler.queue.get(job_id)
        self._send_json(200, {"job": job.to_document()})

    def _delete_job(self, job_id: str, query) -> None:
        job = self.server.scheduler.queue.cancel(job_id)
        self._send_json(200, {"job": job_summary(job)})

    def _get_events(self, job_id: str, query) -> None:
        try:
            after = int(query.get("after", ["-1"])[0])
        except ValueError:
            raise ConfigError("'after' must be an integer event seq") from None
        queue = self.server.scheduler.queue
        job = queue.get(job_id)
        self._send_json(
            200,
            {
                "job_id": job_id,
                "state": job.state,
                "events": queue.events_since(job_id, after),
            },
        )

    def _get_artifact(self, fingerprint: str, query) -> None:
        store = self.server.scheduler.queue.store
        # path_for validates the digest shape.
        path = store.path_for(STORE_NAMESPACE, fingerprint)
        if not store.has_artifact(STORE_NAMESPACE, fingerprint):
            raise UnknownNameError(f"no artifact stored for {fingerprint!r}")
        # Serve the stored bytes verbatim: re-encoding could perturb the
        # byte-identity contract between served and computed artifacts.
        self._send(200, path.read_text())


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one scheduler."""

    daemon_threads = True

    def __init__(
        self,
        address,
        scheduler: Scheduler,
        verbose: bool = False,
        request_timeout: float | None = 30.0,
        chaos=None,
    ):
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigError(
                f"request_timeout must be None or > 0, got {request_timeout!r}"
            )
        super().__init__(address, _ServiceHandler)
        self.scheduler = scheduler
        self.verbose = verbose
        self.request_timeout = request_timeout
        #: a ChaosPlan whose ``http`` site injects per-route failures;
        #: defaults to the scheduler's plan so one $REPRO_CHAOS/flag
        #: covers the whole service process.
        self.chaos = chaos if chaos is not None else scheduler.chaos

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:  # also stop the workers, not just the sockets
        super().shutdown()
        self.scheduler.stop(wait=True)


def make_server(
    root,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    workbench=None,
    verbose: bool = False,
    request_timeout: float | None = 30.0,
    retry=None,
    chaos=None,
) -> ServiceServer:
    """Build a ready-to-run service: queue + scheduler + HTTP server.

    The scheduler is started (recovered ``queued`` jobs begin executing
    immediately); call ``serve_forever()`` on the result to accept
    requests, ``shutdown()`` to stop both the sockets and the workers.
    ``retry`` is the scheduler's job :class:`repro.core.resilience.
    RetryPolicy`; ``chaos`` (a plan or a JSON plan string; ``None`` also
    honours ``$REPRO_CHAOS``) injects deterministic failures for tests.
    """
    queue = JobQueue(root)
    scheduler = Scheduler(
        queue, workbench=workbench, workers=workers, retry=retry, chaos=chaos
    )
    scheduler.start()
    return ServiceServer(
        (host, port),
        scheduler,
        verbose=verbose,
        request_timeout=request_timeout,
    )


def serve(
    root,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    verbose: bool = True,
    request_timeout: float | None = 30.0,
    retry=None,
) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    server = make_server(
        root,
        host=host,
        port=port,
        workers=workers,
        verbose=verbose,
        request_timeout=request_timeout,
        retry=retry,
    )
    print(f"repro service listening on {server.url} (store root: {root})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro service: shutting down")
    finally:
        server.scheduler.stop(wait=False)
        server.server_close()
    return 0
