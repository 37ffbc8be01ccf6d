"""End-to-end benchmark of the repository: four workloads, one command.

    python3 perfbench/run.py --workload fig4-campaign --seed 1 --seconds 10 --trace 0

Each cycle runs in a fresh worker process (``worker.py``) with its own
scratch cache/service root: setup, then pass 1 against empty caches
(``cold_s``), then pass 2 against the caches pass 1 filled (``warm_s``).
Cycles repeat until ``--seconds`` have passed and at least ``MIN_CYCLES``
ran; see :func:`end_to_end` for how they are combined.  Every job's output
is checked against the reference digests in ``reference.json``, recorded
from the seed tree.  ``RATIONALE.md`` says why each workload and metric
exists.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced cycle and prints the per-layer metrics;
``trace.overhead_s`` is traced minus untraced ``cold_s``.  The spans go
to ``perfbench/out/trace-<workload>.json.gz`` (Chrome trace-event JSON).

``--workload all`` runs every workload in turn.  ``--record`` rewrites
``reference.json`` from the current tree (every input variant);
``--perturb-reference`` corrupts the recorded digests in a scratch copy,
to show that a wrong output is counted as a failure.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import VARIANTS, WORKLOADS  # noqa: E402

CYCLE_TIMEOUT_S = 170.0
#: a run measures at least this many cycles and at least --seconds ...
MIN_CYCLES = 3
#: ... but starts no cycle it expects to end after this many seconds, so a
#: slow host gets fewer cycles instead of a longer run.
MAX_RUN_S = 40.0

END_TO_END = {
    "cold_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

#: per-layer metric -> unit.  Counters the traced cycle does not touch
#: read 0 (e.g. every spice metric on atpg-c499).
PER_LAYER = {
    "pipeline.sensitivity_s": "s",
    "pipeline.deviation_s": "s",
    "pipeline.stimulus_s": "s",
    "pipeline.atpg_s": "s",
    "pipeline.campaign_s": "s",
    "analog.measure.calls": "count",
    "analog.measure_s": "s",
    "analog.worst_case_deviation.calls": "count",
    "analog.worst_case_deviation_s": "s",
    "analog.sensitivity_matrix_s": "s",
    "spice.transfer.calls": "count",
    "spice.mna_solver.builds": "count",
    "spice.mna_solve.calls": "count",
    "spice.mna_solve_s": "s",
    "spice.deviation_batch.calls": "count",
    "spice.deviation_batch_s": "s",
    "spice.solve_many.columns": "count",
    "atpg.run_atpg_s": "s",
    "atpg.generate.calls": "count",
    "atpg.generate_s": "s",
    "atpg.circuit_bdd.builds": "count",
    "atpg.circuit_bdd_s": "s",
    "bdd.nodes": "count",
    "bdd.ite_misses": "count",
    "bdd.ite_hit_ratio": "ratio",
    "bdd.unique_hit_ratio": "ratio",
    "digital.topological_order.calls": "count",
    "digital.compact_s": "s",
    "campaign.run_s": "s",
    "campaign.faults": "count",
    "campaign.shards_executed": "count",
    "campaign.shards_from_cache": "count",
    "cache.gets": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.bytes_written": "bytes",
    "service.requests": "count",
    "service.request_s": "s",
    "service.queue_wait_s": "s",
    "service.job_run_s": "s",
    "service.executions": "count",
    "service.store_hits": "count",
    "service.dedup_hits": "count",
    "setup.import_s": "s",
    "setup.registry_s": "s",
    "setup.circuit_build_s": "s",
    "setup.server_s": "s",
    **{
        f"self.{layer}_s": "s"
        for layer in (
            "pipeline", "analog", "spice", "atpg", "digital", "campaign",
            "cache", "service",
        )
    },
    "trace.spans": "count",
    "trace.cold_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def provenance() -> dict:
    """Where a number came from: code identity, host and library versions."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout: the source digest identifies it
    source = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        source.update(str(path.relative_to(REPO)).encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def run_cycle(workload: str, seed: int, scratch: Path, reference: Path = REFERENCE,
              traced: bool = False, trace_file: Path | None = None,
              record: bool = False) -> dict:
    """One fresh worker process: setup, cold pass, warm pass."""
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    result_path = root / "result.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--root", str(root), "--result", str(result_path),
        "--reference", str(reference),
    ]
    if traced:
        command.append("--trace")
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    if record:
        command.append("--record")
    # Temporary files stay inside the run's root; a fixed hash seed keeps
    # set iteration order, and with it every traced count, the same.
    env = dict(os.environ, TMPDIR=str(root), PYTHONHASHSEED="0")
    env.pop("REPRO_CHAOS", None)
    began = time.perf_counter()
    try:
        completed = subprocess.run(
            command, cwd=REPO, env=env, capture_output=True, text=True,
            timeout=CYCLE_TIMEOUT_S,
        )
        if completed.returncode != 0 or not result_path.exists():
            raise RuntimeError(
                f"worker exited {completed.returncode}:\n{completed.stderr[-4000:]}"
            )
        cycle = json.loads(result_path.read_text())
        cycle["wall_s"] = time.perf_counter() - began
        return cycle
    finally:
        shutil.rmtree(root, ignore_errors=True)


def end_to_end(cycles: list[dict]) -> dict:
    """Pass times are the fastest cycle's; set-up and memory the median.

    The worker already normalises every time to host speed; what noise is
    left (a GC pause, a slow probe window) only adds time, so the fastest
    cycle is the estimate that moves least between runs.
    """
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    return {
        "cold_s": min(c["cold_s"] for c in cycles),
        "warm_s": min(c["warm_s"] for c in cycles),
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cycles),
        "pass_ratio": 1.0 - _ratio(failed, attempted),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    counters = dict(traced["counters"])
    for key, value in traced["setup_parts"].items():
        counters[f"setup.{key}"] = value
    for layer, seconds in traced["self_time_s"].items():
        counters[f"self.{layer}_s"] = seconds
    for ratio, hits, misses in (
        ("bdd.ite_hit_ratio", "bdd.ite_hits", "bdd.ite_misses"),
        ("bdd.unique_hit_ratio", "bdd.unique_hits", "bdd.unique_misses"),
    ):
        hit = counters.get(hits, 0)
        counters[ratio] = _ratio(hit, hit + counters.get(misses, 0))
    counters["cache.hit_ratio"] = _ratio(
        counters.get("cache.hits", 0), counters.get("cache.gets", 0)
    )
    counters["trace.spans"] = traced["spans"]
    counters["trace.cold_s"] = traced["cold_s"]
    counters["trace.overhead_s"] = traced["cold_s"] - untraced["cold_s"]
    return {key: counters.get(key, 0.0) for key in PER_LAYER}


def run_workload(args, workload: str, scratch: Path, reference: Path) -> dict:
    started = time.perf_counter()
    cycles = [run_cycle(workload, args.seed, scratch, reference)]
    if args.trace:
        trace_file = OUT / f"trace-{workload}.json.gz"
        cycles.append(
            run_cycle(workload, args.seed, scratch, reference, True, trace_file)
        )
        values, units = per_layer(*cycles), PER_LAYER
    else:
        while True:
            elapsed = time.perf_counter() - started
            if len(cycles) >= MIN_CYCLES and elapsed >= args.seconds:
                break
            if elapsed + cycles[-1]["wall_s"] > MAX_RUN_S:
                break
            cycles.append(run_cycle(workload, args.seed, scratch, reference))
        values, units = end_to_end(cycles), END_TO_END
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    for cycle in cycles:
        for failure in cycle["failures"]:
            print(f"FAIL {workload}: {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    document = {
        "workload": workload,
        "seed": args.seed,
        "variant": args.seed % VARIANTS,
        "trace": bool(args.trace),
        "cycles": cycles,
        "provenance": provenance(),
    }
    (OUT / f"result-{workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(document, indent=1)
    )
    print("PROVENANCE " + json.dumps(document["provenance"], sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def record(scratch: Path) -> None:
    """Rewrite reference.json from the current tree, every variant."""
    reference: dict[str, dict] = {}
    for workload in WORKLOADS:
        seeds = [0] if workload == "atpg-c499" else range(VARIANTS)
        for seed in seeds:
            cycle = run_cycle(workload, seed, scratch, record=True)
            if cycle["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {cycle['failures']}")
            reference.setdefault(workload, {}).update(cycle["reference"])
            print(f"recorded {workload} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    if not args.record and not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Byte-compile once, so the first cycle's setup_s does not include it.
    compileall.compile_dir(REPO / "src", quiet=1)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.record:
            record(scratch)
            return 0
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        reference = REFERENCE
        if args.perturb_reference:
            document = json.loads(REFERENCE.read_text())
            for workload in workloads:
                for entry in document[workload].values():
                    entry["digest"] = "0" * 64
            reference = scratch / "perturbed-reference.json"
            reference.write_text(json.dumps(document))
        for workload in workloads:
            print(json.dumps(run_workload(args, workload, scratch, reference)), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
