"""Campaign failure and resume: a failed shard raises, a re-run resumes.

The contract under test (``repro.core.sharding``): shards are
deterministic, so a shard that raises stops the campaign with a
:class:`ShardExecutionError` naming it, and recovery is resume — every
shard that finished is cached, a re-run on the same ``cache_dir``
executes only the rest, and its result is byte-identical to an
undisturbed run.  Failures are injected with ``monkeypatch``.
"""

import random

import pytest

from repro.analog.faultsim import draw_faults
from repro.api import Artifact, CampaignConfig, ConfigError, Workbench
from repro.core import run_campaign
from repro.core import sharding
from repro.core.cache import ResultCache
from repro.core.sharding import (
    SHARD_NAMESPACE,
    ShardExecutionError,
    campaign_fingerprint,
    shard_bounds,
    shard_fingerprint,
)


class _Crash(Exception):
    """The injected failure: stands for a process dying mid-step."""


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


def _config(**overrides):
    return CampaignConfig(faults_per_element=4, seed=11).replace(**overrides)


def _shard_fps(prepared, config) -> list[str]:
    """Each shard's cache key, in shard order."""
    mixed, report = prepared
    testable = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        testable,
        config.faults_per_element,
        config.severity_range,
        random.Random(config.seed),
    )
    return [
        shard_fingerprint(mixed.name, config, faults[start:stop], testable)
        for start, stop in shard_bounds(len(faults), config.shards)
    ]


def _payload_json(result) -> str:
    return Artifact.from_campaign(result, "fig4").to_json()


@pytest.fixture(scope="module")
def prepared():
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


@pytest.fixture(scope="module")
def baseline(prepared):
    """The undisturbed run every resumed run must match exactly."""
    mixed, report = prepared
    return run_campaign(mixed, report, config=_config())


class TestFailedShard:
    def test_raises_naming_the_shard_and_resumes_byte_identically(
        self, prepared, baseline, tmp_path, monkeypatch
    ):
        """Shard 1 of 3 raises: the campaign stops naming it, shard 0 is
        cached, and a clean re-run executes exactly shards 1 and 2."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        execute = sharding._execute_shard
        original = _Crash("singular system")

        def failing(program, faults, index):
            if index == 1:
                raise original
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        with pytest.raises(ShardExecutionError) as excinfo:
            run_campaign(mixed, report, config=config)
        start, stop = shard_bounds(len(baseline.outcomes), 3)[1]
        assert f"shard 1 (faults [{start}, {stop}))" in str(excinfo.value)
        assert "_Crash: singular system" in str(excinfo.value)
        assert excinfo.value.__cause__ is original

        cache = ResultCache(tmp_path)
        fps = _shard_fps(prepared, config)
        assert cache.has_artifact(SHARD_NAMESPACE, fps[0])
        assert not cache.has_artifact(SHARD_NAMESPACE, fps[1])
        assert not cache.has_artifact(SHARD_NAMESPACE, fps[2])

        monkeypatch.undo()
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0]
        assert [
            row["resumed"] for row in resumed.diagnostics["shard_rows"]
        ] == [True, False, False]
        assert _payload_json(resumed) == _payload_json(baseline)

    @pytest.mark.parametrize("failing", [0, 2], ids=["first", "last"])
    def test_failure_at_either_end_runs_once_and_resumes_there(
        self, prepared, baseline, tmp_path, monkeypatch, failing
    ):
        """The failing shard executes once and no shard after it runs;
        the cache holds exactly the shards before it, and the re-run
        executes exactly the failing shard onwards."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        execute = sharding._execute_shard
        executed = []

        def failing_at(program, faults, index):
            executed.append(index)
            if index == failing:
                raise _Crash("singular system")
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing_at)
        with pytest.raises(ShardExecutionError, match=f"shard {failing} "):
            run_campaign(mixed, report, config=config)
        assert executed == list(range(failing + 1))

        cache = ResultCache(tmp_path)
        assert [
            cache.has_artifact(SHARD_NAMESPACE, fp)
            for fp in _shard_fps(prepared, config)
        ] == [index < failing for index in range(3)]

        monkeypatch.undo()
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == list(range(failing))
        assert resumed.diagnostics["shards_executed"] == 3 - failing
        assert _payload_json(resumed) == _payload_json(baseline)

    def test_sharded_failure_without_a_cache_names_the_shard(
        self, prepared, monkeypatch
    ):
        """Without a ``cache_dir`` the error still names the shard and
        keeps the original as its cause; nothing is written anywhere."""
        mixed, report = prepared
        execute = sharding._execute_shard
        original = _Crash("singular system")
        executed = []

        def failing(program, faults, index):
            executed.append(index)
            if index == 1:
                raise original
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        with pytest.raises(ShardExecutionError, match="shard 1 ") as excinfo:
            run_campaign(mixed, report, config=_config(shards=3))
        assert excinfo.value.__cause__ is original
        assert executed == [0, 1]

    def test_unsharded_failure_raises_the_original(
        self, prepared, monkeypatch
    ):
        """Without shards or a cache there is nothing to resume: the
        engine's own exception reaches the caller."""
        mixed, report = prepared

        def failing(self, *args, **kwargs):
            raise _Crash("engine failed")

        monkeypatch.setattr(sharding.FactorizedEngine, "run", failing)
        with pytest.raises(_Crash):
            run_campaign(mixed, report, config=_config())


class TestCrashResume:
    def test_torn_cache_write_reads_as_a_miss(
        self, prepared, baseline, tmp_path, monkeypatch
    ):
        """Dying mid-write of the last shard's cache entry leaves half a
        document at its final path; the re-run reads it as a miss and
        re-executes only that shard."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        cache_shard = sharding._cache_shard

        def torn(cache, fingerprint, run, shards, circuit_name):
            if run.index != 2:
                return cache_shard(cache, fingerprint, run, shards, circuit_name)
            text = sharding._shard_artifact(
                run, shards, fingerprint, circuit_name
            ).to_json()
            path = cache.path_for(SHARD_NAMESPACE, fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text[: len(text) // 2], encoding="utf-8")
            raise _Crash("died mid-write")

        monkeypatch.setattr(sharding, "_cache_shard", torn)
        with pytest.raises(_Crash):
            run_campaign(mixed, report, config=config)
        cache = ResultCache(tmp_path)
        fps = _shard_fps(prepared, config)
        assert cache.path_for(SHARD_NAMESPACE, fps[2]).read_text()
        assert not cache.has_artifact(SHARD_NAMESPACE, fps[2])

        monkeypatch.undo()
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0, 1]
        assert resumed.diagnostics["shards_executed"] == 1
        assert _payload_json(resumed) == _payload_json(baseline)

    def test_crash_after_every_shard_is_cached_resumes_everything(
        self, prepared, baseline, tmp_path
    ):
        """A crash once the last shard landed loses nothing: the re-run
        executes zero shards.  The progress callback's exception passes
        through unwrapped — it is how a service job is cancelled."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))

        def crash_on_last(run):
            if run.index == 2:
                raise _Crash("died before the merge")

        with pytest.raises(_Crash):
            run_campaign(mixed, report, config=config, progress=crash_on_last)
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0, 1, 2]
        assert resumed.diagnostics["shards_executed"] == 0
        assert _payload_json(resumed) == _payload_json(baseline)

    def test_progress_exception_after_a_fresh_shard_keeps_it_cached(
        self, prepared, baseline, tmp_path
    ):
        """The callback runs once the shard it reports is cached: an
        abort raised there passes through unwrapped and loses nothing."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))

        def crash_on_first(run):
            if run.index == 0:
                raise _Crash("cancelled")

        with pytest.raises(_Crash):
            run_campaign(mixed, report, config=config, progress=crash_on_first)
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0]
        assert resumed.diagnostics["shards_executed"] == 2
        assert _payload_json(resumed) == _payload_json(baseline)

    def test_progress_exception_on_a_cached_shard_passes_through(
        self, prepared, tmp_path
    ):
        """Cache-served shards are reported too, and an abort raised
        while reporting one is not dressed up as a shard failure."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        run_campaign(mixed, report, config=config)
        seen = []

        def crash_on_second(run):
            seen.append((run.index, run.resumed))
            if run.index == 1:
                raise _Crash("cancelled")

        with pytest.raises(_Crash):
            run_campaign(
                mixed, report, config=config, progress=crash_on_second
            )
        assert seen == [(0, True), (1, True)]


class TestEarlierReleaseDocuments:
    def test_partial_campaign_document_is_refused(self, baseline):
        """An earlier release wrote campaigns that skipped failed shards
        with ``"partial": true``; reading one as complete would
        overstate its coverage."""
        document = Artifact.from_campaign(baseline, "fig4").to_document()
        assert "partial" not in document["payload"]
        document["payload"]["partial"] = True
        document["payload"]["failed_shards"] = [
            {"shard": 1, "start": 11, "stop": 22, "attempts": 2}
        ]
        with pytest.raises(ConfigError, match="partial"):
            Artifact.from_document(document).campaign()

    def test_complete_results_keep_the_old_byte_format(
        self, prepared, baseline
    ):
        """A sharded campaign serializes its outcomes and nothing else,
        exactly as complete campaigns always did, and reads back whole."""
        mixed, report = prepared
        result = run_campaign(mixed, report, config=_config(shards=2))
        artifact = Artifact.from_campaign(result, "fig4")
        assert list(artifact.payload) == ["outcomes"]
        assert artifact.payload == Artifact.from_campaign(
            baseline, "fig4"
        ).payload
        reloaded = Artifact.from_json(artifact.to_json()).campaign()
        assert _outcome_key(reloaded) == _outcome_key(baseline)


class TestFingerprintExclusion:
    def test_retired_fields_never_move_the_keys(self, prepared):
        """A config loaded from a document that still records the
        retired retry, quarantine and chaos knobs keys the same campaign
        and the same shards, as do the split knobs that remain."""
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(testable, 4, (0.5, 3.0), random.Random(11))
        base = _config()
        document = {
            **base.as_dict(),
            "shard_attempts": 5,
            "retry_backoff": 1.0,
            "quarantine": False,
            "chaos": '{"events": []}',
        }
        for config in (
            CampaignConfig.from_document(document),
            _config(shards=7),
            _config(cache_dir="/elsewhere"),
        ):
            assert campaign_fingerprint(
                mixed.name, config, faults, testable
            ) == campaign_fingerprint(mixed.name, base, faults, testable)
            assert shard_fingerprint(
                mixed.name, config, faults, testable
            ) == shard_fingerprint(mixed.name, base, faults, testable)
