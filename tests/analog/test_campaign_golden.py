"""Golden campaign regression: seeded outcomes are a checked-in artifact.

A small fig4 campaign (`faults_per_element=3`, `seed=2024`) is frozen as
a versioned ``campaign`` Artifact under ``tests/analog/goldens/``.  The
test regenerates the campaign on the factorized engine and
asserts the canonical JSON rendering is byte-identical to the golden —
any drift in fault drawing, step ordering, detection semantics or
serialization shows up as a diff.

Floats are rounded to 12 decimal places before serialization so the
golden is stable against last-ulp BLAS differences while still pinning
the outcomes.

Regenerate (after an *intentional* semantics change) with::

    PYTHONPATH=src python tests/analog/test_campaign_golden.py
"""

import sys
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parents[2] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import pytest

from repro.analog import ReferenceEngine
from repro.api import Artifact, CampaignConfig, Workbench
from repro.core import CampaignResult, InjectionOutcome, run_campaign
from repro.core.campaign import draw_population

GOLDEN_PATH = Path(__file__).parent / "goldens" / "fig4_campaign.json"
CONFIG = CampaignConfig(faults_per_element=3, seed=2024)


def _canonical(result: CampaignResult) -> CampaignResult:
    """Round the float fields so the rendering is platform-stable."""
    return CampaignResult(
        outcomes=[
            InjectionOutcome(
                element=o.element,
                deviation=round(o.deviation, 12),
                severity=round(o.severity, 12),
                detected=o.detected,
                detecting_target=o.detecting_target,
            )
            for o in result.outcomes
        ]
    )


def _golden_artifact(result: CampaignResult) -> Artifact:
    return Artifact.from_campaign(
        _canonical(result),
        circuit="fig4",
        meta={
            "golden": True,
            # The golden predates the retired ``engine``, ``backend``
            # and ``digital_engine`` fields; it records the values
            # every campaign still runs on.  It also predates the retired
            # process-pool and retry knobs, recorded at their old
            # defaults.
            "config": {
                **CONFIG.as_dict(),
                "engine": "factorized",
                "backend": "auto",
                "digital_engine": "compiled",
                "heartbeat_interval": None,
                "shard_timeout": None,
                "shard_workers": None,
                "shard_attempts": 2,
                "retry_backoff": 0.05,
                "quarantine": True,
                "chaos": None,
            },
            "regenerate": "PYTHONPATH=src python "
            "tests/analog/test_campaign_golden.py",
        },
    )


def _prepared():
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


def _run_campaign() -> CampaignResult:
    return run_campaign(*_prepared(), config=CONFIG)


@pytest.fixture(scope="module")
def campaign():
    return _run_campaign()


class TestGoldenCampaign:
    def test_golden_exists_and_loads(self):
        artifact = Artifact.load(GOLDEN_PATH)
        assert artifact.kind == "campaign"
        golden = artifact.campaign()
        assert golden.n_injected == 8 * CONFIG.faults_per_element

    def test_outcomes_byte_stable(self, campaign):
        regenerated = _golden_artifact(campaign).to_json() + "\n"
        assert regenerated == GOLDEN_PATH.read_text(), (
            "campaign outcomes drifted from the checked-in golden; if "
            "the change is intentional, regenerate via "
            "`PYTHONPATH=src python tests/analog/test_campaign_golden.py`"
        )

    def test_reference_engine_matches_golden(self, campaign):
        mixed, report = _prepared()
        oracle = CampaignResult(
            outcomes=ReferenceEngine().run(
                mixed, *draw_population(report, CONFIG)
            )
        )
        assert (
            _golden_artifact(oracle).to_json()
            == _golden_artifact(campaign).to_json()
        )

    def test_detection_promise_in_golden(self):
        golden = Artifact.load(GOLDEN_PATH).campaign()
        assert golden.guaranteed_detection_rate == 1.0


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _golden_artifact(_run_campaign()).save(GOLDEN_PATH)
    print(f"golden written: {GOLDEN_PATH}")
