"""Content-cache benchmark: a one-fault edit recomputes one shard.

Runs a sharded campaign on the 512-section ``rc_ladder`` harness with
``cache_dir`` set, re-runs it warm, then edits a single fault's
deviation and re-runs again, and reports the reuse as ``BENCH`` JSON::

    BENCH {"bench": "campaign-cache", "circuit": "rc-ladder-512", ...}

Gates (the script exits non-zero when any enabled check fails):

* the cold run executes every shard; the warm run executes **zero**
  shards and its merged outcome document is byte-identical to the
  cold run's;
* the edited run executes **at most one** shard — only the slice whose
  content fingerprint changed — and every unedited fault keeps its
  outcome;
* warm wall-clock beats cold by at least ``--min-speedup`` (default
  5×).  The speed gate is skipped under ``--smoke`` and on single-CPU
  hosts (timing there is noise, not signal); the reuse and identity
  checks always apply.

Modes:

* full (default)  — 512-section ladder, 8 shards, best-of-1 timing
  (the cold leg is the expensive one; re-running it would defeat the
  point of a cache benchmark);
* ``--smoke``     — 64-section ladder, 3 shards, no speed gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _here = Path(__file__).resolve().parent
    _src = _here.parent / "src"
    for _path in (str(_src), str(_here)):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from bench_campaign import _ladder_campaign_harness

from repro.api import Artifact, CampaignConfig
from repro.analog.faultsim import draw_faults
from repro.core.sharding import run_sharded_campaign, shard_bounds


def _merged_document(result) -> str:
    return json.dumps(Artifact.from_campaign(result).payload, sort_keys=True)


def _timed(mixed, steps, faults, config):
    start = time.perf_counter()
    result = run_sharded_campaign(mixed, steps, faults, config)
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sections", type=int, default=512)
    parser.add_argument("--faults-per-element", type=int, default=2)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="fail unless the warm re-run beats the cold run by this much",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small ladder and shard count, reuse checks only, no speed gate",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    sections = 64 if args.smoke else args.sections
    shards = 3 if args.smoke else args.shards
    cpus = os.cpu_count() or 1
    gate_enabled = not args.smoke and cpus >= 2

    mixed, report = _ladder_campaign_harness(sections)
    steps = [t for t in report.analog_tests if t.testable]
    base = CampaignConfig(
        faults_per_element=args.faults_per_element, seed=args.seed
    )
    faults = draw_faults(
        steps,
        base.faults_per_element,
        base.severity_range,
        random.Random(base.seed),
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        config = base.replace(shards=shards, cache_dir=cache_dir)
        t_cold, cold = _timed(mixed, steps, faults, config)
        t_warm, warm = _timed(mixed, steps, faults, config)

        # One edited deviation: exactly one slice fingerprint changes.
        edited = list(faults)
        target = len(edited) // 2
        edited[target] = dataclasses.replace(
            edited[target], deviation=edited[target].deviation * 1.5
        )
        t_edit, after_edit = _timed(mixed, steps, edited, config)

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    edit_speedup = t_cold / t_edit if t_edit > 0 else float("inf")
    identical = _merged_document(cold) == _merged_document(warm)

    executed_cold = cold.diagnostics["shards_executed"]
    executed_warm = warm.diagnostics["shards_executed"]
    executed_edit = after_edit.diagnostics["shards_executed"]

    # The recomputed slice must be the one holding the edited fault,
    # and every unedited fault must keep its cold-run outcome.
    bounds = shard_bounds(len(faults), shards)
    [touched] = [
        i for i, (lo, hi) in enumerate(bounds) if lo <= target < hi
    ]
    edit_preserved = touched not in after_edit.diagnostics[
        "shards_from_cache"
    ] and all(
        (c.element, c.deviation, c.severity, c.detected)
        == (e.element, e.deviation, e.severity, e.detected)
        for index, (c, e) in enumerate(zip(cold.outcomes, after_edit.outcomes))
        if index != target
    )

    point = {
        "bench": "campaign-cache",
        "circuit": f"rc-ladder-{sections}",
        "faults_per_element": args.faults_per_element,
        "seed": args.seed,
        "shards": shards,
        "cpus": cpus,
        "n_faults": len(faults),
        "cold_s": round(t_cold, 6),
        "warm_s": round(t_warm, 6),
        "edit_s": round(t_edit, 6),
        "speedup": round(speedup, 2),
        "edit_speedup": round(edit_speedup, 2),
        "shards_executed_cold": executed_cold,
        "shards_executed_warm": executed_warm,
        "shards_executed_edit": executed_edit,
        "identical_outcomes": identical,
        "edit_preserved_unedited": edit_preserved,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    failures = []
    if executed_cold != shards:
        failures.append(
            f"cold run executed {executed_cold} of {shards} shards"
        )
    if executed_warm != 0:
        failures.append(
            f"warm run executed {executed_warm} shards instead of 0"
        )
    if not identical:
        failures.append("warm merged document differs from the cold run")
    if executed_edit > 1:
        failures.append(
            f"one-fault edit recomputed {executed_edit} shards instead of <= 1"
        )
    if not edit_preserved:
        failures.append("edited run did not preserve unedited outcomes")
    if len(faults) == 0:
        failures.append("campaign drew no faults")
    if gate_enabled and speedup < args.min_speedup:
        failures.append(
            f"warm speedup {speedup:.1f}x below the "
            f"{args.min_speedup:.1f}x gate"
        )
    if not args.smoke and not gate_enabled:
        print(
            f"bench_cache: note — single CPU ({cpus}); "
            "speed gate skipped, reuse checks enforced"
        )
    for failure in failures:
        print(f"bench_cache: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_cache: ok — {len(faults)} faults, {shards} shards, "
            f"warm {speedup:.1f}x, edit recomputed "
            f"{executed_edit}/{shards} shards ({edit_speedup:.1f}x)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
