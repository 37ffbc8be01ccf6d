"""Resilience overhead benchmark: supervision must be ~free when calm.

Runs the same undisturbed sharded campaign twice on the rc-ladder
harness from :mod:`bench_campaign` — once with the retry/quarantine
machinery effectively disabled (``shard_attempts=1``), once with
retries armed — and reports the relative overhead as a ``BENCH`` JSON
point::

    BENCH {"bench": "resilience-overhead", "circuit": "rc-ladder-512", ...}

A second point replays the hardened run under a chaos plan that fails
one shard's first attempt, and checks the recovered artifact is
byte-identical to the undisturbed one::

    BENCH {"bench": "resilience-recovery", "circuit": "rc-ladder-512", ...}

Modes:

* full (default)  — 512-section ladder, best-of-3 timing, and a hard
  gate: hardened must be within ``--max-overhead`` (default 5%) of the
  plain run;
* ``--smoke``     — 64-section ladder, single pass, no overhead gate
  (CI runners are noisy); the byte-identity checks still apply.

Exit status is non-zero when any enabled check fails, so the script
doubles as a CI gate next to ``bench_campaign.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _here = Path(__file__).resolve().parent
    _src = _here.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))
    if str(_here) not in sys.path:
        sys.path.insert(0, str(_here))

from bench_campaign import _ladder_campaign_harness, _outcome_key

from repro.api import Artifact, CampaignConfig
from repro.core import run_campaign


def _time_campaign(mixed, report, config: CampaignConfig, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_campaign(mixed, report, config=config)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sections", type=int, default=512,
        help="rc_ladder size for the harness",
    )
    parser.add_argument("--faults-per-element", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-overhead", type=float, default=5.0,
        help="fail when the hardened run is more than this many percent "
        "slower than the plain run",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small ladder, one timing pass, no overhead gate",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    sections = 64 if args.smoke else args.sections
    repeats = 1 if args.smoke else args.repeats
    circuit = f"rc-ladder-{sections}"
    mixed, report = _ladder_campaign_harness(sections)

    base = CampaignConfig(
        faults_per_element=args.faults_per_element,
        seed=args.seed,
        shards=args.shards,
    )
    # Supervision off: one attempt per shard.
    plain = base.replace(shard_attempts=1)
    # Supervision on: retries armed, quarantine live.
    hardened = base.replace(shard_attempts=3, retry_backoff=0.0)

    # Warm both paths (imports, symbolic analysis, LU caches).
    warm = plain.replace(faults_per_element=1)
    run_campaign(mixed, report, config=warm)

    t_plain, plain_result = _time_campaign(mixed, report, plain, repeats)
    t_hardened, hardened_result = _time_campaign(
        mixed, report, hardened, repeats
    )
    identical = _outcome_key(plain_result) == _outcome_key(hardened_result)
    overhead_pct = (
        (t_hardened / t_plain - 1.0) * 100.0 if t_plain > 0 else 0.0
    )

    point = {
        "bench": "resilience-overhead",
        "circuit": circuit,
        "faults_per_element": args.faults_per_element,
        "seed": args.seed,
        "shards": args.shards,
        "n_faults": hardened_result.n_injected,
        "plain_s": round(t_plain, 6),
        "hardened_s": round(t_hardened, 6),
        "overhead_pct": round(overhead_pct, 2),
        "identical_outcomes": identical,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))

    failures = []
    if not identical:
        failures.append(
            "hardened supervision changed the seeded outcome list"
        )
    if hardened_result.n_injected == 0:
        failures.append("campaign injected no faults")
    if hardened_result.partial:
        failures.append("undisturbed hardened run reported a partial result")
    if not args.smoke and overhead_pct > args.max_overhead:
        failures.append(
            f"supervision overhead {overhead_pct:.1f}% above the "
            f"{args.max_overhead:.1f}% gate"
        )

    # ------------------------------------------------------------------
    # Recovery check: one shard's first attempt dies, the retried run
    # must still produce the byte-identical artifact.
    chaos = json.dumps(
        {"events": [{"site": "shard", "key": "1", "attempts": [1]}]}
    )
    disturbed = run_campaign(
        mixed, report, config=hardened.replace(chaos=chaos)
    )
    reference_json = Artifact.from_campaign(
        hardened_result, circuit=mixed.name
    ).to_json()
    disturbed_json = Artifact.from_campaign(
        disturbed, circuit=mixed.name
    ).to_json()
    recovered_identical = disturbed_json == reference_json
    retries = disturbed.diagnostics.get("retries", [])
    recovery_point = {
        "bench": "resilience-recovery",
        "circuit": circuit,
        "n_faults": disturbed.n_injected,
        "retries": len(retries),
        "partial": disturbed.partial,
        "recovered_identical": recovered_identical,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(recovery_point, sort_keys=True))
    if not retries:
        failures.append("chaos plan injected no failure (harness drift?)")
    if disturbed.partial:
        failures.append("disturbed run quarantined instead of recovering")
    if not recovered_identical:
        failures.append(
            "recovered artifact is not byte-identical to the undisturbed one"
        )

    if args.json:
        Path(args.json).write_text(
            json.dumps([point, recovery_point], indent=2, sort_keys=True)
            + "\n"
        )

    for failure in failures:
        print(f"bench_resilience: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_resilience: ok — {hardened_result.n_injected} faults, "
            f"{overhead_pct:+.1f}% supervision overhead, recovery identical"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
