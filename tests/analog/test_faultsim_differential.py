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
from repro.spice import MnaSolver, log_frequencies

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

    def test_threaded_factorized_matches_serial(self, session):
        mixed, report = _prepared(session, "fig4")
        config = CampaignConfig(faults_per_element=8, seed=13)
        serial = run_campaign(mixed, report, config=config)
        threaded = run_campaign(
            mixed, report, config=config.replace(max_workers=4)
        )
        assert _outcome_key(serial) == _outcome_key(threaded)


class TestShermanMorrisonSweep:
    """Rank-one updates match full dense solves across frequency."""

    @pytest.mark.parametrize("make", [bandpass_filter, chebyshev_filter])
    def test_deviated_solutions_match_full_solve(self, make):
        circuit = make()
        source = circuit.sources()[0]
        source.ac, source.dc = 1.0, 1.0
        solver = MnaSolver(circuit)
        frequencies = [0.0] + log_frequencies(10.0, 1.0e6, 4)
        for frequency in frequencies:
            factorized = solver.factorized(frequency)
            for element in circuit.element_names():
                for deviation in (-0.5, -0.05, 0.25, 2.0):
                    fast = factorized.solve_deviation(element, deviation)
                    with circuit.with_deviations({element: deviation}):
                        full = MnaSolver(circuit).solve(frequency)
                    for node in full.nodes():
                        assert fast.voltage(node) == pytest.approx(
                            full.voltage(node), abs=1e-9, rel=1e-9
                        )

    def test_deviated_voltage_matches_solution(self):
        circuit = bandpass_filter()
        source = circuit.sources()[0]
        source.ac = 1.0
        factorized = MnaSolver(circuit).factorized(2500.0)
        for element in circuit.element_names():
            for deviation in (-0.3, 0.4):
                full = factorized.solve_deviation(element, deviation)
                for node in full.nodes():
                    # Scalar vs vectorized complex arithmetic may differ
                    # in the last ulp; anything beyond that is a bug.
                    assert factorized.deviated_voltage(
                        element, deviation, node
                    ) == pytest.approx(full.voltage(node), rel=1e-13)
