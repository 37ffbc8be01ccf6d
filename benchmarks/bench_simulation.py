"""Micro-benchmarks of the substrates: fault simulation and MNA solves.

Besides the pytest-benchmark micro-benchmarks, this file doubles as a
script comparing the dense and sparse linear-system backends on an
N-section RC ladder AC sweep::

    PYTHONPATH=src python benchmarks/bench_simulation.py [--smoke]

It prints a ``BENCH`` JSON point::

    BENCH {"bench": "simulation-backends", "circuit": "rc-ladder-512",
           "dense_s": ..., "sparse_s": ..., "speedup": ..., ...}

Modes:

* full (default) — 512 sections, 32 frequencies, best-of-3 timing, and
  a hard gate: the sparse backend must be at least ``--min-speedup``
  (default 2×) faster than dense;
* ``--smoke``    — same ladder, 6 frequencies, single timing pass, no
  speed gate; the 1e-9 dense/sparse agreement check still applies (the
  same check is a tier-1 test,
  ``test_backends.py::TestBackendEquivalence::
  test_rc_ladder_512_transfer_sweep_agrees``).

Exit status is non-zero when any enabled check fails, so the script
doubles as a CI gate next to ``bench_campaign.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.circuits import (
    LADDER_OUTPUT,
    LADDER_SOURCE,
    chebyshev_filter,
    rc_ladder,
)
from repro.spice import MnaSolver, gain_at, sweep


# ----------------------------------------------------------------------
# pytest-benchmark micro-benchmarks
# ----------------------------------------------------------------------
def test_fault_simulation_c432(benchmark):
    from repro.digital import fault_universe, fault_simulate, iscas85_like

    circuit = iscas85_like("c432")
    faults = fault_universe(circuit)[:200]
    rng = random.Random(7)
    patterns = [
        {name: rng.randint(0, 1) for name in circuit.inputs}
        for _ in range(64)
    ]
    detected = benchmark(lambda: fault_simulate(circuit, patterns, faults))
    assert sum(detected.values()) > 0


def test_mna_solve_chebyshev(benchmark):
    circuit = chebyshev_filter()
    solver = MnaSolver(circuit)
    solution = benchmark(lambda: solver.solve(5_000.0))
    assert abs(solution.voltage("Vo")) >= 0.0


def test_ac_gain_chebyshev(benchmark):
    circuit = chebyshev_filter()
    gain = benchmark(lambda: gain_at(circuit, "Vin", "Vo", 5_000.0))
    assert 0.5 < gain < 1.2


# ----------------------------------------------------------------------
# dense-vs-sparse backend comparison (script mode)
# ----------------------------------------------------------------------
def _sweep(circuit, frequencies, backend: str):
    return sweep(circuit, LADDER_SOURCE, LADDER_OUTPUT, frequencies, backend)


def _time_sweep(circuit, frequencies, backend: str, repeats: int):
    """Best-of-``repeats`` wall clock and the (deterministic) result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = _sweep(circuit, frequencies, backend)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="dense vs sparse backend benchmark (RC ladder AC sweep)"
    )
    parser.add_argument("--sections", type=int, default=512)
    parser.add_argument("--frequencies", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail unless sparse is at least this much faster than dense",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="few frequencies, one timing pass, no speed gate",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    n_frequencies = 6 if args.smoke else args.frequencies
    repeats = 1 if args.smoke else args.repeats

    circuit = rc_ladder(args.sections)
    frequencies = list(np.logspace(1.0, 6.0, n_frequencies))

    # Warm both paths (imports, BLAS thread pools) before timing.
    _sweep(circuit, frequencies[:1], "dense")
    _sweep(circuit, frequencies[:1], "sparse")

    t_dense, dense = _time_sweep(circuit, frequencies, "dense", repeats)
    t_sparse, sparse = _time_sweep(circuit, frequencies, "sparse", repeats)
    speedup = t_dense / t_sparse if t_sparse > 0 else float("inf")
    max_abs_diff = max(
        abs(a - b)
        for a, b in zip(dense.transfer_values, sparse.transfer_values)
    )
    agree = max_abs_diff < 1e-9

    point = {
        "bench": "simulation-backends",
        "circuit": circuit.name,
        "n_nodes": len(circuit.nodes()),
        "n_frequencies": n_frequencies,
        "dense_s": round(t_dense, 6),
        "sparse_s": round(t_sparse, 6),
        "speedup": round(speedup, 2),
        "max_abs_diff": float(max_abs_diff),
        "agree_1e9": agree,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    failures = []
    if not agree:
        failures.append(
            f"dense and sparse responses diverged ({max_abs_diff:.2e})"
        )
    if not args.smoke and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.1f}x below the {args.min_speedup:.1f}x gate"
        )
    for failure in failures:
        print(f"bench_simulation: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_simulation: ok — {point['n_nodes']} nodes, "
            f"{n_frequencies} frequencies, sparse {speedup:.1f}x faster"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
