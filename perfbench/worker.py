"""One benchmark cycle in a fresh process: setup, pass 1 (cold), pass 2 (warm).

Started by ``run.py``; not meant to be run by hand.  The clock for
``setup_s`` starts at the first statement, before ``repro`` is imported.
Every time is normalised to host speed by :class:`speed.SpeedSampler`.
Every job's output is checked before its time counts toward the result;
a mismatch or an exception is recorded as a failure, never a crash.  The
cycle's numbers are written as JSON to ``--result``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedSampler  # noqa: E402

SETUP = SpeedSampler(start=T0).__enter__()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from workloads import VARIANTS, WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _check(key, summary, identity, expected, seen) -> str | None:
    """Why a job's output is wrong, or ``None`` when it is right."""
    if key not in expected:
        return "no reference recorded"
    if summary != expected[key]:
        return f"output {summary} != reference {expected[key]}"
    if seen.setdefault(key, identity) != identity:
        return "output differs from the same job's earlier output"
    return None


def _run_pass(jobs, expected, seen, failures) -> SpeedSampler:
    """Run one pass, checking every job; failures are appended, not raised.

    ``seen`` maps a job key to its first output identity, so pass 2 (and
    any repeat within a pass) must reproduce what pass 1 returned.
    """
    with SpeedSampler() as sampler:
        for key, job in jobs:
            try:
                summary, identity = job()
            except Exception:  # noqa: BLE001 — a failed job is a counted failure
                failures.append(f"{key}: raised\n{traceback.format_exc()}")
                continue
            reason = _check(key, summary, identity, expected, seen)
            if reason is not None:
                failures.append(f"{key}: {reason}")
    return sampler


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="fresh scratch directory")
    parser.add_argument("--result", required=True, help="where to write JSON")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--trace-file", default=None, help="Chrome trace output")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    variant = args.seed % VARIANTS
    workload = WORKLOADS[args.workload](variant, root, REPO)
    reference = json.loads(Path(args.reference).read_text())
    expected = {} if args.record else reference.get(args.workload, {})
    failures: list[str] = []

    workload.setup()
    SETUP.__exit__(None, None, None)
    tracer = None
    if args.trace:
        from tracer import Tracer

        (root / "trace").mkdir(parents=True, exist_ok=True)
        tracer = Tracer(root / "trace")
        tracer.install()
    seen: dict[str, object] = {}
    try:
        if args.record:
            expected = {key: job()[0] for key, job in workload.jobs(1)}
        cold_jobs, warm_jobs = workload.jobs(1), workload.jobs(2)
        cold = _run_pass(cold_jobs, expected, seen, failures)
        warm = _run_pass(warm_jobs, expected, seen, failures)
    finally:
        workload.teardown()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "setup_s": SETUP.normalised(),
        "setup_wall_s": SETUP.wall_s,
        "setup_parts": workload.timer.parts,
        "cold_s": cold.normalised(),
        "warm_s": warm.normalised(),
        "cold_wall_s": cold.wall_s,
        "warm_wall_s": warm.wall_s,
        "probes": [len(cold.samples), len(warm.samples)],
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(cold_jobs) + len(warm_jobs),
        "failed": len(failures),
        "failures": failures,
    }
    if args.record:
        result["reference"] = expected
    if tracer is not None:
        tracer.merge_worker_files()
        documents = getattr(workload, "job_documents", [])
        for job in documents:
            if job.get("started") is not None:
                tracer.add("service.queue_wait_s", job["started"] - job["created"])
                tracer.add("service.job_run_s", job["finished"] - job["started"])
        server = getattr(workload, "server", None)
        if server is not None:
            stats = server.scheduler.stats()
            tracer.add("service.executions", stats["executions"])
            tracer.add("service.store_hits", stats["store_hits"])
        result["counters"] = dict(tracer.counters)
        result["self_time_s"] = tracer.self_times()
        result["spans"] = len(tracer.spans)
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file, origin=T0)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
