"""Digital fault-simulation engines: compiled vs reference.

Besides the pytest-benchmark micro-benchmark, this file doubles as a
script comparing the compiled cone-limited engine against the reference
whole-circuit interpreter on the largest ISCAS-class benchmark::

    PYTHONPATH=src python benchmarks/bench_faultsim_digital.py [--smoke]

It prints a ``BENCH`` JSON point::

    BENCH {"bench": "faultsim-digital", "circuit": "c1908",
           "fault_sim_speedup": ..., "compact_speedup": ..., ...}

Modes:

* full (default) — the whole uncollapsed fault universe, 256 patterns,
  and a hard gate: the compiled engine must be at least
  ``--min-speedup`` (default 3×) faster than the reference for *both*
  ``fault_simulate`` and ``compact_vectors``.  Each speedup is the
  median of ``--pairs`` (default 7) paired ratios: a pair times the
  two engines back to back, alternating which runs first, so load that
  drifts across the run hits both sides of a ratio alike;
* ``--smoke``    — a fault/pattern subsample, single timing pass, no
  speed gate (CI runners are noisy); the engine-agreement checks
  (identical detection maps, identical compacted vectors) still apply.

Exit status is non-zero when any enabled check fails, so the script
doubles as a CI gate next to ``bench_campaign.py`` and
``bench_simulation.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.digital import (
    collapse_faults,
    compact_vectors,
    fault_simulate,
    fault_universe,
    iscas85_like,
)

#: the largest ISCAS-class stand-in in the registry.
CIRCUIT = "c1908"


# ----------------------------------------------------------------------
# pytest-benchmark micro-benchmark
# ----------------------------------------------------------------------
def test_compiled_fault_simulation_c1908(benchmark):
    circuit = iscas85_like(CIRCUIT)
    faults = fault_universe(circuit)[:400]
    patterns = _patterns(circuit, 128, seed=7)
    detected = benchmark(
        lambda: fault_simulate(circuit, patterns, faults, engine="compiled")
    )
    assert sum(detected.values()) > 0


# ----------------------------------------------------------------------
# compiled-vs-reference comparison (script mode)
# ----------------------------------------------------------------------
def _patterns(circuit, count: int, seed: int):
    rng = random.Random(seed)
    return [
        {name: rng.randint(0, 1) for name in circuit.inputs}
        for _ in range(count)
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _paired(compiled, reference, pairs: int):
    """Median reference/compiled ratio over ``pairs`` back-to-back pairs.

    Returns ``(speedup, compiled_s, reference_s, compiled result,
    reference result)``; the two times are each side's median.  The
    engine that runs first alternates from pair to pair.
    """
    ratios, times_c, times_r = [], [], []
    for index in range(pairs):
        if index % 2:
            t_r, result_r = _timed(reference)
            t_c, result_c = _timed(compiled)
        else:
            t_c, result_c = _timed(compiled)
            t_r, result_r = _timed(reference)
        ratios.append(t_r / t_c if t_c > 0 else float("inf"))
        times_c.append(t_c)
        times_r.append(t_r)
    return (
        statistics.median(ratios),
        statistics.median(times_c),
        statistics.median(times_r),
        result_c,
        result_r,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compiled vs reference digital fault simulation "
        f"({CIRCUIT}, fault_simulate + compact_vectors)"
    )
    parser.add_argument("--patterns", type=int, default=256)
    parser.add_argument("--compact-vectors", type=int, default=64)
    parser.add_argument(
        "--pairs", type=int, default=7,
        help="compiled/reference timing pairs per hot path; the gate "
        "reads the median of their ratios",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail unless the compiled engine is at least this much "
        "faster than the reference on both hot paths",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="subsampled workload, one timing pass, no speed gate",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    circuit = iscas85_like(CIRCUIT)
    universe = fault_universe(circuit)
    collapsed = collapse_faults(circuit, universe)
    n_patterns = 64 if args.smoke else args.patterns
    n_vectors = 24 if args.smoke else args.compact_vectors
    faults = universe[:200] if args.smoke else universe
    compact_faults = collapsed[:200] if args.smoke else collapsed
    pairs = 1 if args.smoke else args.pairs
    patterns = _patterns(circuit, n_patterns, seed=7)
    vectors = _patterns(circuit, n_vectors, seed=23)

    # Warm both engines (compilation cache, numpy import) before timing.
    fault_simulate(circuit, patterns[:8], faults[:8], engine="compiled")
    fault_simulate(circuit, patterns[:8], faults[:8], engine="reference")

    sim_speedup, t_sim_c, t_sim_r, detected_c, detected_r = _paired(
        lambda: fault_simulate(circuit, patterns, faults, engine="compiled"),
        lambda: fault_simulate(circuit, patterns, faults, engine="reference"),
        pairs,
    )
    cmp_speedup, t_cmp_c, t_cmp_r, kept_c, kept_r = _paired(
        lambda: compact_vectors(
            circuit, vectors, compact_faults, engine="compiled"
        ),
        lambda: compact_vectors(
            circuit, vectors, compact_faults, engine="reference"
        ),
        pairs,
    )
    detection_agree = detected_c == detected_r
    compact_agree = kept_c == kept_r

    stats = circuit.stats()
    point = {
        "bench": "faultsim-digital",
        "circuit": circuit.name,
        "n_gates": stats["gates"],
        "n_faults": len(faults),
        "n_patterns": n_patterns,
        "n_compact_vectors": n_vectors,
        "pairs": pairs,
        "fault_sim_reference_s": round(t_sim_r, 6),
        "fault_sim_compiled_s": round(t_sim_c, 6),
        "fault_sim_speedup": round(sim_speedup, 2),
        "compact_reference_s": round(t_cmp_r, 6),
        "compact_compiled_s": round(t_cmp_c, 6),
        "compact_speedup": round(cmp_speedup, 2),
        "detection_agree": detection_agree,
        "compact_agree": compact_agree,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    failures = []
    if not detection_agree:
        failures.append("compiled and reference detection maps diverged")
    if not compact_agree:
        failures.append("compiled and reference compacted vectors diverged")
    if not args.smoke and sim_speedup < args.min_speedup:
        failures.append(
            f"fault_simulate speedup {sim_speedup:.1f}x below the "
            f"{args.min_speedup:.1f}x gate"
        )
    if not args.smoke and cmp_speedup < args.min_speedup:
        failures.append(
            f"compact_vectors speedup {cmp_speedup:.1f}x below the "
            f"{args.min_speedup:.1f}x gate"
        )
    for failure in failures:
        print(f"bench_faultsim_digital: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_faultsim_digital: ok — {circuit.name} "
            f"({stats['gates']} gates, {len(faults)} faults), compiled "
            f"{sim_speedup:.1f}x on fault_simulate, {cmp_speedup:.1f}x "
            "on compact_vectors"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
