"""Differential suite: the factorized engine against the reference oracle.

The factorized campaign engine (per-frequency LU reuse, Sherman–Morrison
rank-one updates, memoization, early exit) must be *indistinguishable*
from the slow re-assemble-and-solve reference engine: identical seeded
``InjectionOutcome`` lists on real circuits, and solver-level agreement
to 1e-9 across a frequency sweep.

Marked ``slow``: runs in its own CI job, not in tier-1.
"""

import pytest

from repro.api import CampaignConfig, Workbench
from repro.circuits import bandpass_filter, chebyshev_filter
from repro.core import run_campaign
from repro.spice import AcModel, MnaSolver, Solution, log_frequencies

pytestmark = pytest.mark.slow


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


@pytest.fixture(scope="module")
def session():
    return Workbench().session()


def _prepared(session, name):
    mixed = session.circuit(name)
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


class TestEngineEquivalence:
    def test_fig4_outcomes_identical(self, session):
        mixed, report = _prepared(session, "fig4")
        for seed in (11, 2024, 7):
            config = CampaignConfig(faults_per_element=8, seed=seed)
            fast = run_campaign(
                mixed, report, config=config.replace(engine="factorized")
            )
            oracle = run_campaign(
                mixed, report, config=config.replace(engine="reference")
            )
            assert _outcome_key(fast) == _outcome_key(oracle)

    def test_example3_outcomes_identical(self, session):
        mixed, report = _prepared(session, "example3-c432")
        config = CampaignConfig(faults_per_element=3, seed=5)
        fast = run_campaign(
            mixed, report, config=config.replace(engine="factorized")
        )
        oracle = run_campaign(
            mixed, report, config=config.replace(engine="reference")
        )
        assert fast.n_injected > 0
        assert _outcome_key(fast) == _outcome_key(oracle)


class TestShermanMorrisonSweep:
    """Rank-one updates match full dense solves across frequency."""

    @pytest.mark.parametrize("make", [bandpass_filter, chebyshev_filter])
    def test_deviated_solutions_match_full_solve(self, make):
        circuit = make()
        source = circuit.sources()[0]
        source.ac, source.dc = 1.0, 1.0
        solver = MnaSolver(circuit)
        faults = [
            (element, deviation)
            for element in circuit.element_names()
            for deviation in (-0.5, -0.05, 0.25, 2.0)
        ]
        frequencies = [0.0] + log_frequencies(10.0, 1.0e6, 4)
        for frequency in frequencies:
            factorized = solver.factorized(frequency)
            full = []
            for element, deviation in faults:
                model = AcModel(circuit, None, deviations={element: deviation})
                full.append(
                    Solution.of(model, model.solve(frequency), frequency)
                )
            for node in full[0].nodes():
                fast = factorized.deviation_batch(faults, node)
                for voltage, solution in zip(fast, full):
                    assert voltage == pytest.approx(
                        solution.voltage(node), abs=1e-9, rel=1e-9
                    )
