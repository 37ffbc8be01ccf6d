"""In-process span and counter recording around the package's public calls.

The tracer measures the layers from outside: it replaces selected public
functions and methods of :mod:`repro` with thin wrappers that record one
span (name, start, end, parent) and bump counters per call.  Nothing under
``src/`` is edited; :meth:`Tracer.install` patches every module attribute
and class attribute that refers to a wrapped object, so call sites that
imported a function by name see the wrapper too.

Spans live in memory.  Forked shard workers inherit the wrappers; each
worker appends its spans and counter deltas to a JSON-lines file whenever
its outermost span closes, and :meth:`Tracer.merge_worker_files` folds them
back into the parent.  :meth:`Tracer.write_chrome_trace` writes the
Chrome trace-event JSON (loadable in Perfetto) with per-layer self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _qualified(dotted: str):
    """Resolve ``"pkg.mod:Class.attr"`` to ``(owner, attr_name)``."""
    module_name, _, path = dotted.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


# -- return hooks: turn a wrapped call's result into counters -------------
def _pipeline_timings(tracer, outcome, args, kwargs):
    for timing in outcome.timings:
        if timing.parent is None:
            tracer.add(f"pipeline.{timing.stage}_s", timing.seconds)


def _atpg_bdd(tracer, run, args, kwargs):
    stats = (run.diagnostics or {}).get("bdd") or {}
    for key in ("nodes", "ite_hits", "ite_misses", "unique_hits", "unique_misses"):
        tracer.add(f"bdd.{key}", stats.get(key, 0))


def _campaign_result(tracer, result, args, kwargs):
    diagnostics = result.diagnostics or {}
    tracer.add("campaign.faults", result.n_injected)
    tracer.add("campaign.shards_executed", diagnostics.get("shards_executed", 0))
    tracer.add(
        "campaign.shards_from_cache", len(diagnostics.get("shards_from_cache", ()))
    )


def _solve_many_columns(tracer, result, args, kwargs):
    rhs = args[1] if len(args) > 1 else kwargs["rhs_matrix"]
    tracer.add("spice.solve_many.columns", rhs.shape[1] if rhs.ndim > 1 else 1)


def _cache_get(tracer, result, args, kwargs):
    if result is not None:
        tracer.add("cache.hits", 1)


def _submit_dedup(tracer, job, args, kwargs):
    if job.get("deduplicated"):
        tracer.add("service.dedup_hits", 1)


#: (target, span name, calls counter or None, seconds counter or None,
#:  return hook or None).  A span name shared by nested calls (the
#:  campaign entry points, the cache's put/get pairs) is recorded once,
#:  at the outermost call.  A span name of ``None`` counts calls without
#:  recording spans, for constructors hit once per ``transfer`` call.
TARGETS = [
    ("repro.api.pipeline:Pipeline.run", "pipeline.run", None, None, _pipeline_timings),
    ("repro.analog.parameters:PerformanceParameter.measure", "analog.measure",
     "analog.measure.calls", "analog.measure_s", None),
    ("repro.analog.deviation:worst_case_deviation", "analog.worst_case_deviation",
     "analog.worst_case_deviation.calls", "analog.worst_case_deviation_s", None),
    ("repro.analog.sensitivity:sensitivity_matrix", "analog.sensitivity_matrix",
     None, "analog.sensitivity_matrix_s", None),
    ("repro.spice.ac:transfer", "spice.transfer", "spice.transfer.calls", None, None),
    ("repro.spice.mna:MnaSolver.__init__", None,
     "spice.mna_solver.builds", None, None),
    ("repro.spice.mna:MnaSolver.solve", "spice.mna_solve",
     "spice.mna_solve.calls", "spice.mna_solve_s", None),
    ("repro.spice.mna:FactorizedMna.deviation_batch", "spice.deviation_batch",
     "spice.deviation_batch.calls", "spice.deviation_batch_s", None),
    ("repro.spice.backends:LinearFactorization.solve_many", "spice.solve_many",
     None, None, _solve_many_columns),
    ("repro.atpg.constrained:run_atpg", "atpg.run_atpg",
     "atpg.run_atpg.calls", "atpg.run_atpg_s", _atpg_bdd),
    ("repro.atpg.stuckat:StuckAtGenerator.generate", "atpg.generate",
     "atpg.generate.calls", "atpg.generate_s", None),
    ("repro.atpg.ckt2bdd:CircuitBdd.__init__", "atpg.circuit_bdd",
     "atpg.circuit_bdd.builds", "atpg.circuit_bdd_s", None),
    ("repro.digital.netlist:Circuit.topological_order", "digital.topological_order",
     "digital.topological_order.calls", None, None),
    ("repro.digital.compiled:CompiledFaultSimulator.compact", "digital.compact",
     None, "digital.compact_s", None),
    ("repro.analog.faultsim:FactorizedEngine.run", "campaign.engine_run",
     None, None, None),
    ("repro.analog.faultsim:ReferenceEngine.run", "campaign.engine_run",
     None, None, None),
    ("repro.core.campaign:run_campaign", "campaign.run",
     "campaign.runs", "campaign.run_s", _campaign_result),
    ("repro.core.sharding:run_sharded_campaign", "campaign.run",
     "campaign.runs", "campaign.run_s", _campaign_result),
    ("repro.core.cache:ResultCache.get_artifact", "cache.get",
     "cache.gets", "cache.get_s", _cache_get),
    ("repro.core.cache:ResultCache.get_bytes", "cache.get",
     "cache.gets", "cache.get_s", _cache_get),
    ("repro.core.cache:ResultCache.put_artifact", "cache.put",
     "cache.puts", "cache.put_s", None),
    ("repro.core.cache:ResultCache.put_bytes", "cache.put",
     "cache.puts", "cache.put_s", None),
] + [
    (f"repro.service.client:ServiceClient.{method}", "service.request",
     "service.requests", "service.request_s",
     _submit_dedup if method == "submit" else None)
    for method in (
        "health", "circuits", "submit", "jobs", "status", "cancel",
        "events", "artifact_text",
    )
]


class Tracer:
    """Spans plus counters, recorded by wrappers around public calls."""

    def __init__(self, worker_dir: str | Path):
        self.worker_dir = Path(worker_dir)
        self.spans: list[tuple] = []  # (id, parent, name, start, end, pid, tid)
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, fn, calls):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counters[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, calls, seconds, hook, bytes_of=None):
        if name is None:
            return self._count(fn, calls)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)  # nested re-entry: outer span counts
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            written = bytes_of(args, kwargs) if bytes_of else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (span_id, parent, name, start, end, os.getpid(),
                         threading.get_ident())
                    )
                    if calls:
                        tracer.counters[calls] += 1
                    if seconds:
                        tracer.counters[seconds] += end - start
            if hook is not None:
                hook(tracer, result, args, kwargs)
            if written is not None:
                written(result)
            if not stack and os.getpid() != tracer._pid:
                tracer._flush_worker()
            return result

        return wrapper

    def _bytes_written_hook(self, signature, suffix, args, kwargs):
        """For cache puts: count the bytes of entries the put created."""
        bound = signature.bind(*args, **kwargs).arguments
        path = bound["self"].path_for(
            bound["namespace"], bound["fingerprint"], suffix=suffix
        )
        existed = path.exists()

        def after(result):
            if not existed and path.exists():
                self.add("cache.bytes_written", path.stat().st_size)

        return after

    def install(self) -> None:
        """Patch every target wherever the package refers to it."""
        for target, name, calls, seconds, hook in TARGETS:
            owner, attr = _qualified(target)
            original = owner.__dict__[attr]
            bytes_of = None
            if ".put_" in target:
                suffix = ".bin" if target.endswith("_bytes") else ".json"
                bytes_of = functools.partial(
                    self._bytes_written_hook, inspect.signature(original), suffix
                )
            wrapper = self._wrap(original, name, calls, seconds, hook, bytes_of)
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- forked shard workers --------------------------------------------
    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []
        self.counters = defaultdict(float)

    def _flush_worker(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = dict(self.counters), defaultdict(float)
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": spans, "counters": counters}) + "\n")

    def merge_worker_files(self) -> None:
        """Fold forked workers' spans and counters into this process."""
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    with self._lock:
                        self.spans.extend(tuple(span) for span in record["spans"])
                        for key, value in record["counters"].items():
                            self.counters[key] += value
            path.unlink()

    # -- reporting -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child_time: dict[tuple, float] = defaultdict(float)
        for _sid, parent, _name, start, end, pid, _tid in self.spans:
            if parent is not None:
                child_time[(pid, parent)] += end - start
        layers: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end, pid, _tid in self.spans:
            layer = name.split(".", 1)[0]
            layers[layer] += (end - start) - child_time[(pid, sid)]
        return dict(layers)

    def write_chrome_trace(self, path: str | Path, origin: float) -> None:
        """Write the spans as gzipped Chrome trace-event JSON (``ph: "X"``)."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, name, start, end, pid, tid in self.spans
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "self_time_s": self.self_times(),
                "counters": dict(self.counters),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(document, handle, separators=(",", ":"))
