#!/usr/bin/env python3
"""Anatomy of the constraint function Fc for a flash converter.

Shows how few of a digital block's input assignments survive analog
coupling: a 15-line thermometer code allows 16 of 32768 assignments,
and a popcount encoder fed purely from the converter loses a third of
its faults to the constraints.

Run:  python examples/adc_constraints.py
"""

from repro.atpg import CircuitBdd, run_atpg
from repro.bdd import BddManager
from repro.conversion import (
    FlashAdc,
    constraint_for_lines,
    popcount_encoder,
    thermometer_constraint,
)


def main() -> None:
    adc = FlashAdc(n_comparators=15)
    print("flash converter thresholds (V):")
    print("  " + "  ".join(f"{v:.3f}" for v in adc.thresholds()))

    lines = [f"T{i}" for i in range(15)]
    mgr = BddManager(lines)
    fc = thermometer_constraint(mgr, lines)
    allowed = mgr.sat_count(fc)
    print(
        f"\nFc allows {allowed} of {2**15} input assignments "
        f"({100 * allowed / 2**15:.3f}%) — BDD size {mgr.size(fc)} nodes"
    )

    encoder = popcount_encoder(15)
    cbdd = CircuitBdd(encoder)  # both cases share one compile
    free = run_atpg(encoder, cbdd=cbdd)
    constrained = run_atpg(
        encoder, constraint=constraint_for_lines(lines), cbdd=cbdd
    )
    print(
        f"\npopcount encoder stand-alone : {free.n_faults} faults, "
        f"{free.n_untestable} untestable, {free.n_vectors} vectors"
    )
    print(
        f"popcount encoder constrained : {constrained.n_faults} faults, "
        f"{constrained.n_untestable} untestable, "
        f"{constrained.n_vectors} vectors"
    )
    print(
        "\nevery surviving vector is a valid thermometer code the analog "
        "block can actually produce:"
    )
    for vector in constrained.vectors[:8]:
        code = "".join(str(vector[f"T{i}"]) for i in range(15))
        print(f"  {code}")


if __name__ == "__main__":
    main()
