"""The on-disk result cache."""

import json
import os
import time

import pytest

from repro.api.artifact import Artifact
from repro.api.audit import AUDIT_NAMESPACE
from repro.api.config import ConfigError
from repro.api.pipeline import STAGE_NAMESPACE
from repro.core.cache import ResultCache, check_fingerprint
from repro.core.fingerprint import fingerprint_of
from repro.core.sharding import SHARD_NAMESPACE
from repro.service.jobs import STORE_NAMESPACE


def fp(n: int) -> str:
    return fingerprint_of({"n": n})


def entry(n: int) -> Artifact:
    return Artifact.from_cache_entry("unit-test", {"n": n})


# ----------------------------------------------------------------------
class TestResultCacheArtifacts:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        loaded = cache.get_artifact("unit-test", fp(1))
        assert loaded.kind == "cache-entry"
        assert loaded.payload == {
            "namespace": "unit-test", "document": {"n": 1},
        }

    def test_miss_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_artifact("unit-test", fp(9)) is None
        cache.put_artifact("unit-test", fp(1), entry(1))
        cache.get_artifact("unit-test", fp(1))
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)
        assert stats["namespaces"]["unit-test"]["entries"] == 1

    def test_first_write_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        cache.put_artifact("unit-test", fp(1), entry(2))  # ignored
        assert cache.get_artifact("unit-test", fp(1)).payload["document"] == {
            "n": 1
        }
        assert cache.stats()["puts"] == 1

    def test_wrong_kind_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        assert cache.get_artifact("unit-test", fp(1), kind="report") is None

    def test_has_artifact_does_not_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.has_artifact("unit-test", fp(1))
        cache.put_artifact("unit-test", fp(1), entry(1))
        assert cache.has_artifact("unit-test", fp(1))
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_key_validation(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigError):
            cache.put_artifact("unit-test", "short", entry(1))
        with pytest.raises(ConfigError):
            cache.put_artifact("../escape", fp(1), entry(1))
        assert check_fingerprint(fp(1)) == fp(1)

    def test_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        cache.put_artifact("other-ns", fp(2), entry(2))
        assert cache.namespaces() == ["other-ns", "unit-test"]
        assert cache.fingerprints("unit-test") == [fp(1)]


# ----------------------------------------------------------------------
class TestResultCacheBlobs:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_bytes("unit-test", fp(1), b"\x00\x01payload")
        assert cache.get_bytes("unit-test", fp(1)) == b"\x00\x01payload"

    def test_corruption_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_bytes("unit-test", fp(1), b"payload")
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] + b"X")  # flip the last payload byte
        assert cache.get_bytes("unit-test", fp(1)) is None

    def test_verify_reports_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_bytes("unit-test", fp(1), b"good")
        bad = cache.put_bytes("unit-test", fp(2), b"soon-bad")
        bad.write_bytes(b"not a blob at all")
        cache.put_artifact("unit-test", fp(3), entry(3))
        report = cache.verify()
        assert report["checked"] == 3
        assert report["ok"] == 2
        [row] = report["corrupt"]
        assert row["fingerprint"] == fp(2)


# ----------------------------------------------------------------------
class TestResultCacheGc:
    def _aged_cache(self, tmp_path):
        # A clock injected far in the future makes every entry "old",
        # so gc decisions do not depend on test wall-clock timing.
        return ResultCache(tmp_path, now=lambda: time.time() + 3600)

    def test_keep_set_sweeps_the_rest(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        for n in range(3):
            cache.put_artifact("unit-test", fp(n), entry(n))
        removed = cache.gc(keep=[fp(0)], namespace="unit-test")
        assert removed == [("unit-test", fp(1)), ("unit-test", fp(2))]
        assert cache.fingerprints("unit-test") == [fp(0)]

    def test_keep_requires_namespace(self, tmp_path):
        with pytest.raises(ConfigError):
            self._aged_cache(tmp_path).gc(keep=[fp(0)])

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        for n in range(3):
            path = cache.put_artifact("unit-test", fp(n), entry(n))
            os.utime(path, (n, n))  # mtime order == insertion order
        removed = cache.gc(max_bytes=cache.stats()["bytes"] - 1)
        assert removed == [("unit-test", fp(0))]

    def test_max_bytes_zero_empties_the_cache(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        cache.put_bytes("other-ns", fp(2), b"blob")
        removed = cache.gc(max_bytes=0)
        assert len(removed) == 2
        assert cache.stats()["entries"] == 0

    def test_fresh_entries_survive_the_sweep(self, tmp_path):
        # Clock pinned in the past: every entry postdates the sweep
        # start, so the race rule keeps them all.
        cache = ResultCache(tmp_path, now=lambda: time.time() - 3600)
        cache.put_artifact("unit-test", fp(1), entry(1))
        assert cache.gc(max_bytes=0) == []
        assert cache.has_artifact("unit-test", fp(1))

    def test_stale_tmp_files_are_swept(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        cache.put_artifact("unit-test", fp(1), entry(1))
        shard = cache.path_for("unit-test", fp(1)).parent
        stray = shard / "leftover.tmp"
        stray.write_text("in-flight once")
        cache.gc(keep=[fp(1)], namespace="unit-test")
        assert not stray.exists()
        assert cache.has_artifact("unit-test", fp(1))


# ----------------------------------------------------------------------
class TestEntryEncoding:
    """The cache picks each namespace's entry encoding; readers take
    either."""

    @staticmethod
    def _artifact(namespace):
        return Artifact.from_cache_entry(
            namespace, {"values": [0.1, 1e-300, -2.5], "name": "é"},
            meta={"seconds": 0.25},
        )

    @pytest.mark.parametrize("namespace", [SHARD_NAMESPACE, STAGE_NAMESPACE])
    def test_program_only_namespaces_are_compact(self, tmp_path, namespace):
        cache = ResultCache(tmp_path)
        artifact = self._artifact(namespace)
        path = cache.put_artifact(namespace, fp(1), artifact)
        compact = json.dumps(
            artifact.to_document(),
            separators=(",", ":"),
            sort_keys=True,
            allow_nan=False,
        )
        assert path.read_text() == compact + "\n"
        assert cache.get_artifact(namespace, fp(1)).to_json() == (
            artifact.to_json()
        )

    @pytest.mark.parametrize(
        "namespace", [STORE_NAMESPACE, AUDIT_NAMESPACE, "unit-test"]
    )
    def test_other_namespaces_store_to_json(self, tmp_path, namespace):
        cache = ResultCache(tmp_path)
        artifact = self._artifact(namespace)
        path = cache.put_artifact(namespace, fp(1), artifact)
        assert path.read_text() == artifact.to_json() + "\n"

    def test_an_indented_entry_still_reads_and_is_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        artifact = self._artifact(SHARD_NAMESPACE)
        path = cache.path_for(SHARD_NAMESPACE, fp(1))
        path.parent.mkdir(parents=True)
        path.write_text(artifact.to_json() + "\n")
        assert cache.get_artifact(SHARD_NAMESPACE, fp(1)).payload == (
            artifact.payload
        )
        cache.put_artifact(SHARD_NAMESPACE, fp(1), artifact)
        assert path.read_text() == artifact.to_json() + "\n"
        assert cache.verify()["corrupt"] == []


# ----------------------------------------------------------------------
class TestCacheEntryArtifact:
    def test_cache_entry_kind_round_trips(self, tmp_path):
        # The registered "cache-entry" codec: save/load preserves the
        # namespace + document payload exactly.
        artifact = Artifact.from_cache_entry(
            "audit", {"outcomes": [1, 2]}, circuit="fig4", meta={"v": 1}
        )
        assert artifact.kind == "cache-entry"
        path = artifact.save(tmp_path / "entry.json")
        loaded = Artifact.load(path)
        assert loaded.kind == "cache-entry"
        assert loaded.payload == {
            "namespace": "audit", "document": {"outcomes": [1, 2]},
        }
        assert loaded.circuit == "fig4"
        assert loaded.meta == {"v": 1}
