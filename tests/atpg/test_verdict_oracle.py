"""Every ATPG verdict against exhaustive fault simulation, with no BDDs.

``run_atpg`` decides DETECTED, CONSTRAINED_UNTESTABLE and UNTESTABLE by
BDD emptiness.  At toy scale the same verdicts follow from simulating
every one of the 2^n input patterns, which involves no BDD at all:

* DETECTED ⇔ some ``Fc``-admissible pattern detects the fault;
* CONSTRAINED_UNTESTABLE ⇔ no admissible pattern detects it, but some
  pattern does;
* UNTESTABLE ⇔ no pattern detects it.

Admissibility is decided in plain Python (thermometer codes from
:func:`thermometer_terms`, Example 2's ``l0 + l2``), never through ``Fc``'s
BDD.  The circuits are Fig. 3 under Example 2's constraint and seeded
random 10-input synthesized netlists under a thermometer ``Fc`` on four
inputs.  The paper-scale circuits c432 and c1908, whose constrained spaces
are 2^21 and 2^18 patterns, are left to a slow-lane oracle of their own.
"""

import itertools

import pytest

from repro.atpg import CircuitBdd, TestStatus, run_atpg
from repro.conversion import constraint_for_lines, thermometer_terms
from repro.conversion.constraints import pair_exclusion_constraint
from repro.digital import fault_simulate, fault_universe
from repro.digital.library import fig3_circuit
from repro.digital.synth import SynthSpec, synthesize

#: seeds of the random netlists; every one yields all three verdicts.
SEEDS = range(8)


def _all_patterns(circuit):
    names = list(circuit.inputs)
    return [
        dict(zip(names, bits))
        for bits in itertools.product((0, 1), repeat=len(names))
    ]


def _expected_status(detected_anywhere, detected_admissibly):
    if detected_admissibly:
        return TestStatus.DETECTED
    if detected_anywhere:
        return TestStatus.CONSTRAINED_UNTESTABLE
    return TestStatus.UNTESTABLE


def _oracle_statuses(circuit, faults, admissible):
    """The verdict of each fault from exhaustive simulation alone."""
    patterns = _all_patterns(circuit)
    allowed = [p for p in patterns if admissible(p)]
    assert allowed, "the constraint admits no pattern"
    anywhere = fault_simulate(circuit, patterns, faults)
    admissibly = fault_simulate(circuit, allowed, faults)
    return {f: _expected_status(anywhere[f], admissibly[f]) for f in faults}


def _assert_verdicts_match(circuit, faults, constraint, admissible):
    expected = _oracle_statuses(circuit, faults, admissible)
    run = run_atpg(circuit, faults=faults, constraint=constraint)
    got = {r.fault: r.status for r in run.results}
    assert got == expected
    # Stand-alone, the two untestable kinds collapse into one.
    free = run_atpg(circuit, faults=faults)
    assert {r.fault: r.status for r in free.results} == {
        f: (
            TestStatus.UNTESTABLE
            if status is TestStatus.UNTESTABLE
            else TestStatus.DETECTED
        )
        for f, status in expected.items()
    }
    # Both cases on one compile share its memoized propagation, in
    # either order, and reproduce the fresh-compile runs exactly.
    for constrained_first in (False, True):
        cbdd = CircuitBdd(circuit)
        cases = [(free, None), (run, constraint)]
        if constrained_first:
            cases.reverse()
        for fresh, fc in cases:
            shared = run_atpg(circuit, faults=faults, constraint=fc, cbdd=cbdd)
            assert shared == fresh
    return expected


def _thermometer_admissible(lines):
    codes = {
        tuple(term[line] for line in lines)
        for term in thermometer_terms(lines)
    }
    return lambda pattern: tuple(pattern[line] for line in lines) in codes


class TestFig3:
    def test_example2_verdicts_match_exhaustive_simulation(self):
        circuit = fig3_circuit()
        faults = fault_universe(circuit, include_branches=True)
        expected = _assert_verdicts_match(
            circuit,
            faults,
            pair_exclusion_constraint("l0", "l2"),
            lambda pattern: bool(pattern["l0"] or pattern["l2"]),
        )
        # Example 2: the constraint kills two stem faults the circuit
        # can test on its own.
        killed_stems = sorted(
            str(f) for f, s in expected.items()
            if f.is_stem and s is TestStatus.CONSTRAINED_UNTESTABLE
        )
        assert killed_stems == ["l3 s-a-0", "l5 s-a-0"]


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thermometer_verdicts_match_exhaustive_simulation(self, seed):
        circuit = synthesize(
            SynthSpec(
                f"rand{seed}",
                n_inputs=10,
                n_outputs=4,
                n_gates=48,
                seed=seed,
                xor_fraction=0.15,
            )
        )
        lines = list(circuit.inputs[:4])
        expected = _assert_verdicts_match(
            circuit,
            fault_universe(circuit, include_branches=True),
            constraint_for_lines(lines),
            _thermometer_admissible(lines),
        )
        # The oracle is not vacuous: each verdict kind occurs.
        assert set(expected.values()) == set(TestStatus)
