"""Tests for the fault-injection campaign."""

import pytest

from repro.api import CampaignConfig, GeneratorConfig, Pipeline
from repro.circuits import fig4_mixed_circuit
from repro.core import run_campaign


def _report(mixed):
    config = GeneratorConfig(include_digital=False)
    return Pipeline().run(mixed, generator=config).report


@pytest.fixture(scope="module")
def campaign():
    mixed = fig4_mixed_circuit()
    report = _report(mixed)
    return run_campaign(
        mixed, report, config=CampaignConfig(faults_per_element=4, seed=7)
    )


class TestCampaign:
    def test_population_size(self, campaign):
        assert campaign.n_injected == 8 * 4  # 8 elements x 4 faults

    def test_guaranteed_faults_all_detected(self, campaign):
        # The method's core promise: deviations beyond the computed
        # worst case are always caught.
        assert campaign.guaranteed_detection_rate == 1.0

    def test_overall_rate_reasonable(self, campaign):
        # Sub-threshold faults may escape (they are inside the guaranteed
        # band), but the program should still catch a solid majority.
        assert campaign.detection_rate() > 0.6

    def test_outcomes_recorded(self, campaign):
        for outcome in campaign.outcomes:
            assert outcome.severity > 0
            if outcome.detected:
                assert outcome.detecting_target is not None

    def test_summary_text(self, campaign):
        text = campaign.summary()
        assert "faults injected" in text

    def test_deterministic(self):
        mixed = fig4_mixed_circuit()
        report = _report(mixed)
        config = CampaignConfig(faults_per_element=2, seed=3)
        a = run_campaign(mixed, report, config=config)
        b = run_campaign(mixed, report, config=config)
        assert [o.deviation for o in a.outcomes] == [
            o.deviation for o in b.outcomes
        ]

    def test_empty_severity_band(self, campaign):
        assert campaign.detection_rate(min_severity=100.0) == 1.0


class TestBatchedExecution:
    @pytest.fixture(scope="class")
    def prepared(self):
        mixed = fig4_mixed_circuit()
        report = _report(mixed)
        return mixed, report

    def test_batched_outcomes_identical_to_reference(self, prepared):
        mixed, report = prepared
        config = CampaignConfig(faults_per_element=4, seed=7)
        batched = run_campaign(mixed, report, config=config)
        oracle = run_campaign(
            mixed, report, config=config.replace(engine="reference")
        )
        assert batched.outcomes == oracle.outcomes

    def test_diagnostics_report_batch_traffic(self, prepared):
        mixed, report = prepared
        config = CampaignConfig(faults_per_element=4, seed=7)
        batched = run_campaign(mixed, report, config=config)
        assert batched.diagnostics["batched_gains"] == batched.n_injected
        assert batched.diagnostics["multi_rhs_solves"] >= 1

    def test_sharded_batched_matches_unsharded(self, prepared):
        mixed, report = prepared
        config = CampaignConfig(faults_per_element=3, seed=9)
        unsharded = run_campaign(mixed, report, config=config)
        sharded = run_campaign(
            mixed, report, config=config.replace(shards=3, shard_workers=1)
        )
        assert sharded.outcomes == unsharded.outcomes
        assert sharded.diagnostics["batched_gains"] > 0
