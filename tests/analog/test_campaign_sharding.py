"""Sharded campaign execution: determinism and cache resume.

The contract under test (``repro.core.sharding``): for one seed, the
campaign's ``InjectionOutcome`` list is *identical* — element by
element, byte by byte once serialized — whatever the shard count
(``shards``, including counts that do not divide the fault
population), and a run resumed from cached shards merges to the same
result as an uninterrupted one.
"""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from repro.analog.faultsim import PreparedProgram, draw_faults
from repro.api import Artifact, CampaignConfig, ConfigError, Workbench
from repro.core import run_campaign, shard_bounds, sharding
from repro.core.cache import ResultCache
from repro.core.campaign import draw_population
from repro.core.sharding import (
    SHARD_NAMESPACE,
    ShardExecutionError,
    ShardRun,
    campaign_fingerprint,
    shard_fingerprint,
)
from repro.spice import FactorizedMna, MnaSolver

#: shard cache entries written by the release that still carried flat
#: checkpoint files (fig4, ``faults_per_element=1``, ``seed=3``, two
#: shards): the cache key contract says they must keep serving.
LEGACY_SHARD_CACHE = Path(__file__).parent / "goldens" / "legacy_shard_cache"


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


@pytest.fixture(scope="module")
def prepared():
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


@pytest.fixture(scope="module")
def baseline(prepared):
    """The classic single-process, single-thread run: the reference."""
    mixed, report = prepared
    return run_campaign(mixed, report, config=_config())


def _config(**overrides):
    return CampaignConfig(faults_per_element=4, seed=11).replace(**overrides)


def _shard_paths(prepared, config):
    """Each shard's entry in ``config.cache_dir``, in shard order."""
    mixed, report = prepared
    testable = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        testable,
        config.faults_per_element,
        config.severity_range,
        random.Random(config.seed),
    )
    cache = ResultCache(config.cache_dir)
    return [
        cache.path_for(
            SHARD_NAMESPACE,
            shard_fingerprint(mixed.name, config, faults[start:stop], testable),
        )
        for start, stop in shard_bounds(len(faults), config.shards)
    ]


class TestShardBounds:
    def test_partition_is_exact_and_contiguous(self):
        for n_faults in (0, 1, 7, 32, 33):
            for shards in (1, 2, 5, 40):
                bounds = shard_bounds(n_faults, shards)
                assert len(bounds) == shards
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_faults
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start  # no gap, no overlap
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1  # balanced

    def test_more_shards_than_faults_yields_empty_shards(self):
        bounds = shard_bounds(3, 5)
        assert [stop - start for start, stop in bounds] == [1, 1, 1, 0, 0]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            shard_bounds(10, 0)
        with pytest.raises(ConfigError):
            shard_bounds(-1, 2)


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_shard_counts_identical(self, prepared, baseline, shards):
        # fig4 draws 32 faults: 5 deliberately does not divide it.
        mixed, report = prepared
        result = run_campaign(mixed, report, config=_config(shards=shards))
        assert _outcome_key(result) == _outcome_key(baseline)
        if shards > 1:
            rows = result.diagnostics["shard_rows"]
            assert sum(row["n_faults"] for row in rows) == len(
                baseline.outcomes
            )

    def test_serialized_outcomes_byte_identical(self, prepared, baseline):
        mixed, report = prepared
        sharded = run_campaign(mixed, report, config=_config(shards=3))
        unsharded_json = Artifact.from_campaign(baseline, "fig4").to_json()
        sharded_json = Artifact.from_campaign(sharded, "fig4").to_json()
        assert sharded_json == unsharded_json


class TestCheckpointResume:
    """Resume is a cache lookup: each finished shard is a ``cache_dir``
    entry, and a re-run executes only the shards without a readable one."""

    def test_checkpoints_written_and_loadable(
        self, prepared, baseline, tmp_path
    ):
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        result = run_campaign(mixed, report, config=config)
        assert _outcome_key(result) == _outcome_key(baseline)
        for index, path in enumerate(_shard_paths(prepared, config)):
            artifact = Artifact.load(path)
            assert artifact.kind == "campaign-shard"
            assert artifact.payload["shard_index"] == index
            assert artifact.payload["n_shards"] == 3
            assert artifact.campaign().outcomes  # decodes through Artifact

    def test_interrupted_run_resumes_from_finished_shards(
        self, prepared, baseline, tmp_path
    ):
        """Kill the run after its first shard lands, then re-run."""
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))

        class Killed(Exception):
            pass

        def kill_after_first_shard(event):
            if isinstance(event, ShardRun):
                raise Killed

        with pytest.raises(Killed):
            run_campaign(
                mixed, report, config=config, progress=kill_after_first_shard
            )
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0]
        assert resumed.diagnostics["shards_executed"] == 2
        assert _outcome_key(resumed) == _outcome_key(baseline)

    def test_deleted_checkpoint_is_recomputed(
        self, prepared, baseline, tmp_path
    ):
        mixed, report = prepared
        config = _config(shards=3, cache_dir=str(tmp_path))
        run_campaign(mixed, report, config=config)
        paths = _shard_paths(prepared, config)
        paths[1].unlink()
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0, 2]
        assert resumed.diagnostics["shards_executed"] == 1
        assert _outcome_key(resumed) == _outcome_key(baseline)
        assert paths[1].exists()  # re-persisted

    def test_stale_checkpoints_are_ignored(self, prepared, tmp_path):
        """A different seed draws other faults: no entry matches."""
        mixed, report = prepared
        config = _config(shards=2, cache_dir=str(tmp_path))
        run_campaign(mixed, report, config=config)
        other = run_campaign(mixed, report, config=config.replace(seed=99))
        assert other.diagnostics["shards_from_cache"] == []
        assert other.diagnostics["shards_executed"] == 2
        fresh = run_campaign(
            mixed, report, config=config.replace(seed=99, cache_dir=None)
        )
        assert _outcome_key(other) == _outcome_key(fresh)

    @pytest.mark.parametrize(
        "content", ['{"torn":', "[1, 2, 3]", '{"foreign": true}']
    )
    def test_torn_or_foreign_checkpoint_is_ignored(
        self, prepared, baseline, tmp_path, content
    ):
        mixed, report = prepared
        config = _config(shards=2, cache_dir=str(tmp_path))
        run_campaign(mixed, report, config=config)
        _shard_paths(prepared, config)[0].write_text(content)
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [1]
        assert _outcome_key(resumed) == _outcome_key(baseline)

    def test_fully_resumed_run_keeps_engine_diagnostics(
        self, prepared, tmp_path
    ):
        mixed, report = prepared
        config = _config(shards=2, cache_dir=str(tmp_path))
        first = run_campaign(mixed, report, config=config)
        resumed = run_campaign(mixed, report, config=config)
        assert resumed.diagnostics["shards_from_cache"] == [0, 1]
        assert resumed.diagnostics["shards_executed"] == 0
        # The cache entry carries the engine diagnostics forward.
        assert resumed.diagnostics["backend"] == first.diagnostics["backend"]
        assert (
            resumed.diagnostics["digital_engine"]
            == first.diagnostics["digital_engine"]
        )

    def test_checkpoint_json_is_strict(self, prepared, tmp_path):
        mixed, report = prepared
        config = _config(shards=2, cache_dir=str(tmp_path))
        run_campaign(mixed, report, config=config)
        for path in _shard_paths(prepared, config):
            json.loads(path.read_text())  # no Infinity/NaN literals


class TestFingerprint:
    def test_fanout_knobs_do_not_invalidate_checkpoints(self, prepared):
        """Re-running with another split or cache root must resume
        cleanly."""
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(
            testable, 4, (0.5, 3.0), random.Random(11)
        )
        base = campaign_fingerprint(mixed.name, _config(), faults)
        for overrides in (
            {"shards": 7},
            {"cache_dir": "/elsewhere"},
        ):
            assert (
                campaign_fingerprint(mixed.name, _config(**overrides), faults)
                == base
            )

    def test_outcome_relevant_fields_do_invalidate(self, prepared):
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(
            testable, 4, (0.5, 3.0), random.Random(11)
        )
        base = campaign_fingerprint(mixed.name, _config(), faults, testable)
        assert (
            campaign_fingerprint("other", _config(), faults, testable) != base
        )
        assert (
            campaign_fingerprint(mixed.name, _config(seed=12), faults, testable)
            != base
        )
        assert (
            campaign_fingerprint(mixed.name, _config(), faults[:-1], testable)
            != base
        )

    def test_digests_match_the_recorded_release(self, prepared):
        """Cache identity is a contract: these keys name entries already
        on disk in existing cache directories."""
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(testable, 4, (0.5, 3.0), random.Random(11))
        assert campaign_fingerprint(mixed.name, _config(), faults, testable) == (
            "1d12325cc8ca5b6c31fadd744b98dd40a34db058557a98e681536683fdea492c"
        )
        assert [
            shard_fingerprint(mixed.name, _config(), faults[start:stop], testable)
            for start, stop in shard_bounds(len(faults), 3)
        ] == [
            "89eb87a4f5aaac6880f3f46ae7cd1b944b6b5228d97fe666334f1c34a416b899",
            "a601b18d157293ca7782d7f5a6417cba847e16b10f92e2b7a078acd30401164d",
            "24e6422b7abecf3923574cfec76319bccd22c0e18f8ed5973d092c57e149e6cc",
        ]

    def test_changed_program_steps_do_invalidate(self, prepared):
        """A regenerated test program must never reuse old checkpoints."""
        import dataclasses

        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(testable, 4, (0.5, 3.0), random.Random(11))
        base = campaign_fingerprint(mixed.name, _config(), faults, testable)
        stimulus = dataclasses.replace(
            testable[0].stimulus, amplitude=testable[0].stimulus.amplitude * 2
        )
        changed = [dataclasses.replace(testable[0], stimulus=stimulus)]
        changed += list(testable[1:])
        assert (
            campaign_fingerprint(mixed.name, _config(), faults, changed)
            != base
        )


class TestContentCacheResume:
    """The ResultCache-backed incremental layer (``cache_dir``)."""

    def _population(self, prepared):
        mixed, report = prepared
        testable = [t for t in report.analog_tests if t.testable]
        faults = draw_faults(testable, 4, (0.5, 3.0), random.Random(11))
        return mixed, testable, faults

    def test_warm_rerun_executes_no_shards(
        self, prepared, baseline, tmp_path
    ):
        mixed, report = prepared
        config = _config(shards=4, cache_dir=str(tmp_path))
        cold = run_campaign(mixed, report, config=config)
        assert cold.diagnostics["shards_executed"] == 4
        assert cold.diagnostics["shards_from_cache"] == []
        warm = run_campaign(mixed, report, config=config)
        assert warm.diagnostics["shards_executed"] == 0
        assert warm.diagnostics["shards_from_cache"] == [0, 1, 2, 3]
        assert _outcome_key(warm) == _outcome_key(baseline)
        # The merged outcome documents are byte-identical.
        assert json.dumps(
            Artifact.from_campaign(cold).payload, sort_keys=True
        ) == json.dumps(Artifact.from_campaign(warm).payload, sort_keys=True)

    def test_one_fault_edit_recomputes_only_its_shard(
        self, prepared, tmp_path
    ):
        import dataclasses

        from repro.core.sharding import run_sharded_campaign

        mixed, testable, faults = self._population(prepared)
        config = _config(shards=4, cache_dir=str(tmp_path))
        cold = run_sharded_campaign(mixed, testable, faults, config)
        assert cold.diagnostics["shards_executed"] == 4
        # Edit one fault's deviation: exactly one slice fingerprint
        # changes, so exactly one shard is recomputed.
        edited = list(faults)
        edited[5] = dataclasses.replace(
            edited[5], deviation=edited[5].deviation * 1.5
        )
        warm = run_sharded_campaign(mixed, testable, edited, config)
        assert warm.diagnostics["shards_executed"] == 1
        assert len(warm.diagnostics["shards_from_cache"]) == 3
        # The recomputed slice is the one holding fault #5.
        bounds = shard_bounds(len(faults), 4)
        [(touched, _)] = [
            (i, b) for i, b in enumerate(bounds) if b[0] <= 5 < b[1]
        ]
        assert touched not in warm.diagnostics["shards_from_cache"]
        # Unedited faults keep their outcomes.
        for cold_o, warm_o in zip(cold.outcomes, warm.outcomes):
            if cold_o.element == edited[5].element:
                continue
            assert (cold_o.element, cold_o.deviation, cold_o.detected) == (
                warm_o.element, warm_o.deviation, warm_o.detected
            )

    def test_fanout_and_strategy_knobs_hit_the_same_entries(
        self, prepared, tmp_path
    ):
        mixed, report = prepared
        cold = run_campaign(
            mixed,
            report,
            config=_config(shards=4, cache_dir=str(tmp_path)),
        )
        assert cold.diagnostics["shards_executed"] == 4
        # A config recorded by an earlier release still carries the
        # retired retry knobs; they load away and the shard keys hold:
        # full cache service.
        recorded = {
            **_config(shards=4, cache_dir=str(tmp_path)).as_dict(),
            "shard_attempts": 3,
            "retry_backoff": 0.0,
            "quarantine": False,
        }
        warm = run_campaign(
            mixed, report, config=CampaignConfig.from_document(recorded)
        )
        assert warm.diagnostics["shards_executed"] == 0
        assert _outcome_key(warm) == _outcome_key(cold)

    def test_legacy_cache_dir_is_served(self, prepared, tmp_path):
        """A cache directory written before checkpoint files were retired
        resumes completely: the shard keys did not move."""
        mixed, report = prepared
        shutil.copytree(LEGACY_SHARD_CACHE, tmp_path / "cache")
        config = CampaignConfig(
            faults_per_element=1, seed=3, shards=2, cache_dir=str(tmp_path / "cache")
        )
        served = run_campaign(mixed, report, config=config)
        assert served.diagnostics["shards_executed"] == 0
        assert served.diagnostics["shards_from_cache"] == [0, 1]
        fresh = run_campaign(mixed, report, config=config.replace(cache_dir=None))
        assert Artifact.from_campaign(served).to_json() == (
            Artifact.from_campaign(fresh).to_json()
        )

    def test_flat_checkpoint_files_are_ignored(self, prepared, tmp_path):
        """Old ``shard-NNNN-of-NNNN.json`` files are neither read nor
        migrated: a directory holding only those runs every shard."""
        mixed, report = prepared
        entry = next(LEGACY_SHARD_CACHE.rglob("*.json"))
        flat = tmp_path / "shard-0000-of-0002.json"
        flat.write_text(entry.read_text())
        config = CampaignConfig(
            faults_per_element=1, seed=3, shards=2, cache_dir=str(tmp_path)
        )
        result = run_campaign(mixed, report, config=config)
        assert result.diagnostics["shards_executed"] == 2
        assert flat.read_text() == entry.read_text()  # left untouched

    def test_shard_fingerprint_keys_the_slice_not_the_layout(
        self, prepared
    ):
        mixed, testable, faults = self._population(prepared)
        piece = faults[:8]
        base = shard_fingerprint(mixed.name, _config(), piece, testable)
        # Population-drawing knobs are implied by the slice itself.
        for overrides in (
            {"seed": 99},
            {"faults_per_element": 7},
            {"severity_range": (0.1, 9.0)},
            {"shards": 5},
            {"cache_dir": "/elsewhere"},
        ):
            assert (
                shard_fingerprint(
                    mixed.name, _config(**overrides), piece, testable
                )
                == base
            )
        # The slice itself does invalidate.
        assert (
            shard_fingerprint(mixed.name, _config(), faults[:7], testable)
            != base
        )


class _Crash(Exception):
    pass


def _without_seconds(text: str) -> str:
    """A shard entry's bytes with its wall-clock ``seconds`` blanked."""
    return re.sub(r'"seconds": [^,}\n]+', '"seconds": null', text)


def _count_factorizations(monkeypatch) -> list[float]:
    """Record the frequency of every ``MnaSolver.factorized`` call."""
    calls: list[float] = []
    factorized = MnaSolver.factorized

    def counting(self, frequency_hz):
        calls.append(frequency_hz)
        return factorized(self, frequency_hz)

    monkeypatch.setattr(MnaSolver, "factorized", counting)
    return calls


class TestSharedPreparation:
    """A campaign prepares the factorized engine once, in its first
    executing shard, and every shard runs on that preparation without
    depending on the shards that ran before it."""

    def test_one_preparation_per_campaign(
        self, prepared, baseline, tmp_path, monkeypatch
    ):
        mixed, report = prepared
        calls = _count_factorizations(monkeypatch)
        config = _config(shards=4, cache_dir=str(tmp_path))
        cold = run_campaign(mixed, report, config=config)
        assert cold.diagnostics["shards_executed"] == 4
        assert _outcome_key(cold) == _outcome_key(baseline)
        testable, _ = draw_population(report, config)
        frequencies = {step.stimulus.frequency_hz for step in testable}
        assert sorted(calls) == sorted(frequencies)

        calls.clear()
        warm = run_campaign(mixed, report, config=config)
        assert warm.diagnostics["shards_from_cache"] == [0, 1, 2, 3]
        assert calls == []

    def test_preparation_error_names_the_first_executing_shard(
        self, prepared, tmp_path, monkeypatch
    ):
        mixed, report = prepared
        original = _Crash("singular system")

        def failing(self, frequency_hz):
            raise original

        monkeypatch.setattr(MnaSolver, "factorized", failing)
        config = _config(shards=4, cache_dir=str(tmp_path))
        with pytest.raises(ShardExecutionError, match="shard 0 ") as excinfo:
            run_campaign(mixed, report, config=config)
        assert excinfo.value.__cause__ is original
        assert not any(path.exists() for path in _shard_paths(prepared, config))

    def test_a_shard_does_not_depend_on_the_shards_before_it(
        self, prepared, tmp_path, monkeypatch
    ):
        """Shard 2 executed after shards 0-1 and shard 2 executed first
        in its process write the same entry, diagnostics included; and
        no update direction survives from one shard into the next."""
        mixed, report = prepared
        execute = sharding._execute_shard
        executing: list[int] = []
        first_batch: dict[tuple[int, float], int] = {}

        def tracking(program, faults, index):
            executing.append(index)
            return execute(program, faults, index)

        deviation_batch = FactorizedMna.deviation_batch

        def observed(self, faults, node):
            first_batch.setdefault(
                (executing[-1], self.frequency_hz), self.cached_directions
            )
            return deviation_batch(self, faults, node)

        monkeypatch.setattr(sharding, "_execute_shard", tracking)
        monkeypatch.setattr(FactorizedMna, "deviation_batch", observed)
        cold = _config(shards=4, cache_dir=str(tmp_path / "cold"))
        run_campaign(mixed, report, config=cold)
        assert executing == [0, 1, 2, 3]
        assert {shard for shard, _ in first_batch} == {0, 1, 2, 3}
        assert set(first_batch.values()) == {0}

        seeded = cold.replace(cache_dir=str(tmp_path / "seeded"))
        cold_paths = _shard_paths(prepared, cold)
        seeded_paths = _shard_paths(prepared, seeded)
        for index in (0, 1):
            seeded_paths[index].parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(cold_paths[index], seeded_paths[index])
        executing.clear()
        result = run_campaign(mixed, report, config=seeded)
        assert result.diagnostics["shards_from_cache"] == [0, 1]
        assert executing == [2, 3]
        assert _without_seconds(
            seeded_paths[2].read_text()
        ) == _without_seconds(cold_paths[2].read_text())

    def test_a_run_does_not_depend_on_the_runs_before_it(
        self, prepared, monkeypatch
    ):
        """One fault list run twice on one program: the second run asks
        the kernel for the same gains, batch for batch (no gain or
        update direction carried over), and reports the same
        diagnostics."""
        mixed, report = prepared
        testable, faults = draw_population(report, _config())
        requests: list[tuple] = []
        deviation_batch = FactorizedMna.deviation_batch

        def logged(self, faults, node):
            requests.append((self.frequency_hz, tuple(faults)))
            return deviation_batch(self, faults, node)

        monkeypatch.setattr(FactorizedMna, "deviation_batch", logged)
        program = PreparedProgram(mixed, testable)
        first = program.run(faults)
        first_requests = list(requests)
        # Faults that survive their own steps fetch tail gains, one
        # batch-of-one request each: the gain memo is exercised.
        frequencies = {step.stimulus.frequency_hz for step in testable}
        assert len(first_requests) > len(frequencies)
        requests.clear()
        assert program.run(faults) == first
        assert requests == first_requests


class TestConfigSurface:
    def test_invalid_shard_settings_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(shards=0)

    def test_session_injects_shards(self, prepared):
        """The session's campaign config carries the shard count."""
        from repro.api import SessionConfig, TestSession

        session = TestSession(
            config=SessionConfig(campaign=_config(shards=2))
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "campaign"),
        )
        assert result.campaign.diagnostics["shards"] == 2
        assert result.configs["campaign"]["shards"] == 2
        # Per-shard rows surface in the stage timing table.
        labels = [t.stage for t in result.timings if t.parent == "campaign"]
        assert labels == ["campaign:shard0", "campaign:shard1"]
        assert "campaign:shard0" in result.outcome.timing_table()

    def test_explicit_campaign_shards_beat_session(self):
        from repro.api import SessionConfig, TestSession

        session = TestSession(
            config=SessionConfig(campaign=_config(shards=2))
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "campaign"),
            campaign=_config(shards=3),
        )
        assert result.campaign.diagnostics["shards"] == 3


@pytest.mark.slow
class TestShardEqualitySlow:
    """Sharded == unsharded on fig4 and the Example 3 ladder assembly."""

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_fig4_shard_equality(self, prepared, shards):
        mixed, report = prepared
        config = CampaignConfig(faults_per_element=8, seed=2024)
        unsharded = run_campaign(mixed, report, config=config)
        sharded = run_campaign(
            mixed, report, config=config.replace(shards=shards)
        )
        assert _outcome_key(sharded) == _outcome_key(unsharded)

    def test_example3_ladder_equality(self):
        session = Workbench().session()
        mixed = session.circuit("example3-c432")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report
        config = CampaignConfig(faults_per_element=3, seed=5)
        unsharded = run_campaign(mixed, report, config=config)
        sharded = run_campaign(
            mixed, report, config=config.replace(shards=4)
        )
        assert _outcome_key(sharded) == _outcome_key(unsharded)
