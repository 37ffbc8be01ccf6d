#!/usr/bin/env python3
"""Constrained digital ATPG: how analog coupling degrades testability.

Runs the backtrack-free BDD test generator over a benchmark circuit
twice — stand-alone and with 15 of its inputs bound to a flash
converter's thermometer code — and prints exactly what changed: which
faults died, how vector counts moved, what it cost.  Both runs share one
compile, so each fault site's Boolean differences are built once; each
CPU column is that shared propagation plus the case's own phase.

Run:  python examples/constrained_digital_atpg.py [circuit-name]
"""

import sys

from repro.atpg import CircuitBdd, TestStatus, run_atpg
from repro.circuits import benchmark_digital
from repro.conversion import constraint_for_lines, random_line_assignment
from repro.core import format_table


def main(name: str = "c432") -> None:
    digital = benchmark_digital(name)
    lines = random_line_assignment(
        digital.inputs, 15, seed=sum(ord(c) for c in name)
    )
    print(f"{name}: {digital.stats()}")
    print(f"converter-driven lines: {', '.join(lines)}")

    cbdd = CircuitBdd(digital)
    free = run_atpg(digital, cbdd=cbdd)
    constrained = run_atpg(
        digital, constraint=constraint_for_lines(lines), cbdd=cbdd
    )

    print()
    print(
        format_table(
            ["case", "faults", "untestable", "vectors", "CPU [s]"],
            [
                ["stand-alone", free.n_faults, free.n_untestable,
                 free.n_vectors, f"{free.cpu_seconds:.2f}"],
                ["constrained", constrained.n_faults,
                 constrained.n_untestable, constrained.n_vectors,
                 f"{constrained.cpu_seconds:.2f}"],
            ],
        )
    )

    killed = [
        r.fault
        for r in constrained.results
        if r.status is TestStatus.CONSTRAINED_UNTESTABLE
    ]
    print(f"\nfaults killed by the analog constraints ({len(killed)}):")
    for fault in killed[:20]:
        print(f"  {fault}")
    if len(killed) > 20:
        print(f"  ... and {len(killed) - 20} more")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "c432")
