"""Sharded campaign benchmark: process fan-out vs single process.

Runs one seeded fault-injection campaign unsharded and again split
across worker processes (:mod:`repro.core.sharding`), checks the merged
outcome lists are byte-identical, exercises a cache resume round
trip, and reports the wall-clock speedup as a ``BENCH`` JSON point::

    BENCH {"bench": "campaign_sharded", "circuit": ..., "speedup": ...}

Modes:

* full (default)  — the Example 3 assembly (``example3-c432``) with the
  ``reference`` engine at ``faults_per_element = 20``, best-of-3
  timing, and a hard gate: the 4-shard run must be at least
  ``--min-speedup`` (default 2×) faster than the unsharded run.  The
  gate is skipped (with a note) on single-CPU hosts, where a process
  pool cannot win wall-clock by construction; outcome equality is
  always enforced.  The gate circuit is the heavy Example 3 assembly
  because fig4 at ``faults_per_element=20`` completes in ~35 ms
  single-process — below process-pool granularity (measure it with
  ``--circuit fig4``).
* ``--smoke``     — fig4, small population, factorized engine, a shard
  count that does not divide the fault count, plus a cache resume
  round trip; agreement checks only, no timing gate (CI runners are
  noisy).

Exit status is non-zero when any enabled check fails, so the script
doubles as a CI gate next to ``bench_campaign.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import CampaignConfig, Workbench
from repro.core import run_campaign


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


def _time_campaign(mixed, report, config: CampaignConfig, repeats: int):
    """Best-of-``repeats`` wall clock and the (deterministic) result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_campaign(mixed, report, config=config)
        best = min(best, time.perf_counter() - start)
    return best, result


def _resume_round_trip(mixed, report, config: CampaignConfig) -> bool:
    """Cache a run, delete one shard's entry, resume: only that shard
    re-executes and the merged result is equal?"""
    from repro.core.cache import ResultCache
    from repro.core.sharding import SHARD_NAMESPACE

    with tempfile.TemporaryDirectory() as directory:
        cached = config.replace(cache_dir=directory)
        first = run_campaign(mixed, report, config=cached)
        cache = ResultCache(directory)
        [shard0] = [
            fp
            for fp in cache.fingerprints(SHARD_NAMESPACE)
            if cache.get_artifact(SHARD_NAMESPACE, fp).payload["shard_index"]
            == 0
        ]
        cache.path_for(SHARD_NAMESPACE, shard0).unlink()
        resumed = run_campaign(mixed, report, config=cached)
        return (
            _outcome_key(first) == _outcome_key(resumed)
            and resumed.diagnostics["shards_executed"] == 1
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="example3-c432")
    parser.add_argument("--faults-per-element", type=int, default=20)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--engine", default="reference",
        help="campaign engine to shard (default: reference — per-fault "
        "cost large enough for process granularity)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail unless the sharded run is at least this much faster",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fig4, small population, agreement + resume checks only",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        circuit, engine = "fig4", "factorized"
        faults_per_element, shards, repeats = 5, 3, 1
    else:
        circuit, engine = args.circuit, args.engine
        faults_per_element, shards = args.faults_per_element, args.shards
        repeats = args.repeats

    cpus = os.cpu_count() or 1
    gate_enabled = not args.smoke and cpus >= 2

    session = Workbench().session()
    mixed = session.circuit(circuit)
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report

    base = CampaignConfig(
        faults_per_element=faults_per_element, seed=args.seed, engine=engine
    )
    sharded_config = base.replace(shards=shards, shard_workers=shards)

    # Warm both paths once so imports and LU caches don't skew run 1.
    run_campaign(mixed, report, config=base.replace(faults_per_element=1))
    run_campaign(
        mixed, report, config=sharded_config.replace(faults_per_element=1)
    )

    t_unsharded, unsharded = _time_campaign(mixed, report, base, repeats)
    t_sharded, sharded = _time_campaign(
        mixed, report, sharded_config, repeats
    )
    identical = _outcome_key(unsharded) == _outcome_key(sharded)
    resume_ok = _resume_round_trip(mixed, report, sharded_config)
    speedup = t_unsharded / t_sharded if t_sharded > 0 else float("inf")

    point = {
        "bench": "campaign_sharded",
        "circuit": circuit,
        "engine": engine,
        "faults_per_element": faults_per_element,
        "seed": args.seed,
        "shards": shards,
        "cpus": cpus,
        "n_faults": unsharded.n_injected,
        "unsharded_s": round(t_unsharded, 6),
        "sharded_s": round(t_sharded, 6),
        "speedup": round(speedup, 2),
        "identical_outcomes": identical,
        "resume_round_trip": resume_ok,
        "process_pool": bool(sharded.diagnostics.get("process_pool")),
        "detection_rate": round(sharded.detection_rate(), 4),
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    failures = []
    if not identical:
        failures.append("sharded and unsharded outcome lists disagree")
    if not resume_ok:
        failures.append("cache resume did not reproduce the merged run")
    if sharded.n_injected == 0:
        failures.append("campaign injected no faults")
    if gate_enabled and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.1f}x below the {args.min_speedup:.1f}x gate"
        )
    if not args.smoke and not gate_enabled:
        print(
            f"bench_campaign_sharded: note — single CPU ({cpus}); "
            "speed gate skipped, agreement checks enforced"
        )
    for failure in failures:
        print(f"bench_campaign_sharded: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_campaign_sharded: ok — {unsharded.n_injected} faults, "
            f"{shards} shards, {speedup:.1f}x, identical outcomes, "
            f"resume ok"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
