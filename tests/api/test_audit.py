"""``repro.api.audit``: each variant is one direct engine call."""

import json
from pathlib import Path

import pytest

from repro.analog.faultsim import FactorizedEngine, ReferenceEngine
from repro.api import Artifact, CampaignConfig, Workbench
from repro.api.audit import run_audit
from repro.core.cache import ResultCache

LEGACY_REPORT = Path(__file__).parent / "goldens" / "legacy_fig4_report.json"

_STAGES = ("sensitivity", "stimulus", "conversion", "atpg", "campaign")


def _record(**campaign) -> Artifact:
    session = Workbench().session(
        campaign=CampaignConfig(faults_per_element=1, seed=3, **campaign)
    )
    return session.run("fig4", stages=_STAGES).to_artifact()


@pytest.fixture(scope="module")
def recorded():
    return _record()


@pytest.fixture
def engine_calls(monkeypatch):
    """Record ``(engine name, keyword arguments)`` of every engine run."""
    calls = []
    for engine in (FactorizedEngine, ReferenceEngine):
        original = engine.run

        def spy(self, *args, _original=original, **kwargs):
            calls.append((self.name, kwargs))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(engine, "run", spy)
    return calls


class TestReplays:
    def test_each_variant_is_one_direct_engine_call(
        self, recorded, engine_calls
    ):
        audit = run_audit(recorded)
        assert audit.ok and audit.recorded_match is True
        assert sorted(engine_calls, key=repr) == sorted(
            [
                ("factorized", {}),
                ("factorized", {"backend": "dense"}),
                ("factorized", {"backend": "sparse"}),
                ("factorized", {"digital_engine": "reference"}),
                ("reference", {}),
            ],
            key=repr,
        )

    def test_variant_config_rows_keep_their_recorded_shape(self, recorded):
        # audit.json bundles of earlier releases carry these rows; an
        # unchanged campaign must keep producing the same bytes.
        audit = run_audit(recorded)
        defaults = {
            "engine": "factorized",
            "backend": "auto",
            "digital_engine": "compiled",
        }
        assert {
            variant: row["config"] for variant, row in audit.variants.items()
        } == {
            "factorized": defaults,
            "reference": {**defaults, "engine": "reference"},
            "dense": {**defaults, "backend": "dense"},
            "sparse": {**defaults, "backend": "sparse"},
            "digital-reference": {**defaults, "digital_engine": "reference"},
        }

    def test_cached_audit_replays_nothing(
        self, recorded, tmp_path, engine_calls
    ):
        cache = ResultCache(tmp_path / "cache")
        first = run_audit(recorded, cache=cache)
        assert len(engine_calls) == 5
        second = run_audit(recorded, cache=cache)
        assert len(engine_calls) == 5
        assert second.to_document() == first.to_document()

    def test_sharded_recording_replays_as_one_process(self, recorded):
        # Shard layout is execution strategy, not campaign identity:
        # the replay and its fingerprint match the unsharded recording.
        sharded = _record(shards=2)
        audit = run_audit(sharded)
        assert audit.ok and audit.recorded_match is True
        assert audit.fingerprint == run_audit(recorded).fingerprint


class TestRetiredSelectors:
    def test_recorded_non_default_selectors_are_dropped(self, tmp_path):
        # A report whose configs chose the oracles through the retired
        # fields still audits: every variant runs anyway.
        document = json.loads(LEGACY_REPORT.read_text())
        configs = document["meta"]["configs"]
        configs["campaign"].update(
            backend="sparse", digital_engine="reference"
        )
        configs["atpg"]["engine"] = "reference"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        audit = run_audit(Artifact.load(path))
        assert audit.ok and audit.recorded_match is True
