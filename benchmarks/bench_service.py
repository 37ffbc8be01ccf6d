"""Service benchmark: dedup-hit latency vs cold compute, jobs/sec.

Boots the full campaign service (HTTP front end, scheduler, job queue,
content-addressed store) on an ephemeral port, runs one **cold** job —
submit, wait, fetch, all over HTTP — then resubmits the identical spec
and times the **dedup hit** path, which must be served from the store
without recomputation.  Reports a ``BENCH`` JSON point::

    BENCH {"bench": "service", "cold_s": ..., "hit_s": ..., "hit_speedup": ...}

Checks (all hard failures):

* the dedup hit is at least ``--min-speedup`` (default 10×) faster than
  the cold compute — the store's economics in one number;
* the hit is ``served_from_store`` and the scheduler's engine-invocation
  counter shows exactly one execution;
* the artifact fetched on the hit path is byte-identical to the cold
  fetch;
* queue throughput: ``--resubmits`` dedup submissions time the
  jobs/sec the HTTP + queue layers sustain when no compute is involved;
  afterwards the service lists exactly two jobs, the executing one and
  the one served job every resubmission shares.

``--smoke`` shrinks the fault population for CI; the speedup gate stays
enforced (a store read beats a campaign by orders of magnitude on any
host).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import CampaignConfig
from repro.service import ServiceClient
from repro.service.http import make_server


def _submit_and_fetch(client: ServiceClient, circuit: str, campaign: dict):
    """One full round trip: submit → terminal → fetch.  Returns
    ``(seconds, job, artifact_text)``."""
    start = time.perf_counter()
    job = client.submit(circuit, campaign=campaign)
    done = client.wait(job["job_id"], timeout=600.0)
    if done["state"] != "done":
        raise RuntimeError(
            f"job {done['job_id']} ended {done['state']!r}: {done.get('error')}"
        )
    text = client.artifact_text(done["artifact"])
    seconds = time.perf_counter() - start
    done["deduplicated"] = job["deduplicated"]
    return seconds, done, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="fig4")
    parser.add_argument("--faults-per-element", type=int, default=6)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--resubmits", type=int, default=25,
        help="dedup submissions timed for the jobs/sec figure",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="fail unless the dedup hit beats cold compute by this factor",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small population for CI; the speedup gate stays enforced",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    faults_per_element = 2 if args.smoke else args.faults_per_element
    campaign = CampaignConfig(
        faults_per_element=faults_per_element,
        seed=args.seed,
        shards=args.shards,
    ).as_dict()

    failures = []
    with tempfile.TemporaryDirectory() as root:
        server = make_server(root, workers=args.workers)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url, timeout=600.0)
        try:
            cold_s, cold_job, cold_text = _submit_and_fetch(
                client, args.circuit, campaign
            )
            hit_s, hit_job, hit_text = _submit_and_fetch(
                client, args.circuit, campaign
            )
            stats = client.health()["scheduler"]
            speedup = cold_s / hit_s if hit_s > 0 else float("inf")

            # Queue throughput: pure dedup submissions, no compute.
            start = time.perf_counter()
            for _ in range(args.resubmits):
                client.submit(args.circuit, campaign=campaign)
            jobs_per_s = args.resubmits / (time.perf_counter() - start)
            listed = [row["job_id"] for row in client.jobs()]

            if not hit_job["deduplicated"]:
                failures.append("resubmission was not deduplicated")
            if not hit_job["served_from_store"]:
                failures.append("dedup hit was not served from the store")
            if stats["executions"] != 1:
                failures.append(
                    f"expected exactly 1 engine invocation, "
                    f"saw {stats['executions']}"
                )
            if listed != [cold_job["job_id"], hit_job["job_id"]]:
                failures.append(
                    f"expected the executing job and one served job after "
                    f"{args.resubmits} resubmissions, listed {listed}"
                )
            if hit_text != cold_text:
                failures.append("hit fetch differs from cold fetch")
            if speedup < args.min_speedup:
                failures.append(
                    f"dedup hit speedup {speedup:.1f}x below the "
                    f"{args.min_speedup:.1f}x gate"
                )
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    point = {
        "bench": "service",
        "circuit": args.circuit,
        "faults_per_element": faults_per_element,
        "seed": args.seed,
        "shards": args.shards,
        "workers": args.workers,
        "cold_s": round(cold_s, 6),
        "hit_s": round(hit_s, 6),
        "hit_speedup": round(speedup, 2),
        "jobs_per_s": round(jobs_per_s, 2),
        "resubmits": args.resubmits,
        "executions": stats["executions"],
        "store_hits": stats["store_hits"],
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    for failure in failures:
        print(f"bench_service: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_service: ok — cold {cold_s:.2f}s, hit {hit_s * 1e3:.1f}ms "
            f"({speedup:.0f}x), {jobs_per_s:.0f} dedup jobs/s, "
            f"1 engine invocation"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
