"""repro.service — campaign-as-a-service over the workbench.

The multi-client layer the ROADMAP's "millions of users" goal asks for,
composed from the repository's existing pieces (versioned artifacts,
content fingerprints, sharded execution, the result cache):

* :mod:`repro.service.jobs`   — the :class:`JobSpec`/:class:`Job` state
  machine (``queued → running → done|failed|cancelled``), a durable
  :class:`JobQueue` that survives restarts and keeps finished artifacts
  in the :data:`STORE_NAMESPACE` namespace of a
  :class:`repro.core.cache.ResultCache` rooted at the service root
  (fingerprint → artifact, so duplicate work is served instead of
  re-run), and the bounded :class:`Scheduler` driving the sharded
  campaign executor with streaming per-shard progress events;
* :mod:`repro.service.http`   — the stdlib HTTP/JSON API mirroring the
  CLI verbs (``POST /jobs``, ``GET /jobs/{id}``, ``…/events``,
  ``GET /artifacts/{fp}``, ``GET /circuits``);
* :mod:`repro.service.client` — the thin :class:`ServiceClient` behind
  ``python -m repro serve|submit|status|fetch``.

The split follows the evaluator / clients / api exemplar: the
*evaluator* (workbench + engines) stays pure compute, the *service*
owns state and scheduling, *clients* only speak JSON over HTTP.

Quickstart::

    from repro.service import JobQueue, Scheduler, JobSpec

    scheduler = Scheduler(JobQueue("/tmp/repro-store")).start()
    job, deduplicated = scheduler.submit(JobSpec(circuit="fig4"))
"""

from ..core.fingerprint import fingerprint_of
from .jobs import (
    JOB_STATES,
    STORE_NAMESPACE,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobSpec,
    JobStateError,
    Scheduler,
)

__all__ = [
    "JOB_STATES",
    "STORE_NAMESPACE",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobStateError",
    "Scheduler",
    "fingerprint_of",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "make_server",
    "serve",
]

#: attribute -> submodule, loaded lazily (PEP 562): the HTTP/client
#: halves are only needed by processes that actually serve or connect.
_LAZY = {
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceServer": "http",
    "make_server": "http",
    "serve": "http",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
