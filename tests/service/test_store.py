"""The service's content-addressed store: dedup, atomicity, torn files.

The store is the :data:`repro.service.STORE_NAMESPACE` namespace of a
:class:`repro.core.cache.ResultCache` rooted at the service root, laid
out as ``<root>/objects/<fp[:2]>/<fp>.json``.
"""

import json
import os
import time

import pytest

from repro.api import Artifact, ConfigError
from repro.core.cache import ResultCache
from repro.service import STORE_NAMESPACE, fingerprint_of

NS = STORE_NAMESPACE


def _artifact(tag: str) -> Artifact:
    return Artifact(kind="experiment", circuit=None, payload={"name": tag, "rendered": tag, "seconds": 0.0})


def _fp(tag: str) -> str:
    return fingerprint_of({"tag": tag})


def _backdate(store: ResultCache, seconds: float = 60.0) -> None:
    """Age every object file so gc sees it as predating the sweep."""
    past = time.time() - seconds
    for path in store.root.rglob("*"):
        if path.is_file():
            os.utime(path, (past, past))


def _gc(store: ResultCache, keep) -> list[str]:
    return sorted(fp for _, fp in store.gc(keep=keep, namespace=NS))


class TestFingerprint:
    def test_is_sha256_hex_and_deterministic(self):
        assert _fp("a") == _fp("a")
        assert _fp("a") != _fp("b")
        assert len(_fp("a")) == 64
        int(_fp("a"), 16)  # pure hex

    def test_key_order_does_not_matter(self):
        assert fingerprint_of({"a": 1, "b": 2}) == fingerprint_of({"b": 2, "a": 1})


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultCache(tmp_path)
        fp = _fp("one")
        assert not store.has_artifact(NS, fp)
        assert store.get_artifact(NS, fp) is None
        path = store.put_artifact(NS, fp, _artifact("one"))
        # The layout every service root on disk already uses.
        assert path == tmp_path / "objects" / fp[:2] / f"{fp}.json"
        assert store.has_artifact(NS, fp)
        assert store.get_artifact(NS, fp).payload["name"] == "one"
        assert store.fingerprints(NS) == [fp]

    def test_first_write_wins(self, tmp_path):
        """A fingerprint names the work: re-putting never clobbers."""
        store = ResultCache(tmp_path)
        fp = _fp("x")
        store.put_artifact(NS, fp, _artifact("original"))
        store.put_artifact(NS, fp, _artifact("imposter"))
        assert store.get_artifact(NS, fp).payload["name"] == "original"

    def test_torn_entry_reads_as_miss_and_is_replaceable(self, tmp_path):
        store = ResultCache(tmp_path)
        fp = _fp("torn")
        path = store.path_for(NS, fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"artifact_version": 1, "kind": "exper')  # torn write
        assert store.get_artifact(NS, fp) is None
        assert not store.has_artifact(NS, fp)
        store.put_artifact(NS, fp, _artifact("healed"))  # torn entries may be replaced
        assert store.get_artifact(NS, fp).payload["name"] == "healed"

    def test_foreign_json_reads_as_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        fp = _fp("foreign")
        path = store.path_for(NS, fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"not": "an artifact"}))
        assert store.get_artifact(NS, fp) is None

    def test_bad_fingerprints_rejected(self, tmp_path):
        store = ResultCache(tmp_path)
        for bad in ("", "deadbeef", "../../etc/passwd", "Z" * 64, 42, None):
            with pytest.raises(ConfigError):
                store.path_for(NS, bad)

    def test_gc_keeps_only_the_named_set(self, tmp_path):
        store = ResultCache(tmp_path)
        fps = [_fp(tag) for tag in ("a", "b", "c")]
        for fp, tag in zip(fps, ("a", "b", "c")):
            store.put_artifact(NS, fp, _artifact(tag))
        stray = store.path_for(NS, fps[0]).with_suffix(".tmp")
        stray.write_text("killed writer leftovers")
        _backdate(store)  # everything predates the sweep
        removed = _gc(store, keep=[fps[1]])
        assert removed == sorted([fps[0], fps[2]])
        assert store.fingerprints(NS) == [fps[1]]
        assert not stray.exists()

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put_artifact(NS, _fp("clean"), _artifact("clean"))
        assert not list(tmp_path.rglob("*.tmp"))


class TestGcPutRace:
    """gc must never delete what a concurrent put just wrote."""

    def test_entry_written_during_sweep_is_spared(self, tmp_path):
        """A put landing after the sweep started survives the sweep.

        Simulated by pinning the sweep's start time into the past: every
        entry then looks newer than the sweep, exactly as a racing put's
        would.
        """
        store = ResultCache(tmp_path, now=lambda: time.time() - 60.0)
        fp = _fp("fresh")
        store.put_artifact(NS, fp, _artifact("fresh"))
        assert _gc(store, keep=[]) == []
        assert store.has_artifact(NS, fp)

    def test_put_freshens_mtime_of_existing_entry(self, tmp_path):
        """Re-putting marks the entry live so a racing gc skips it."""
        store = ResultCache(tmp_path)
        fp = _fp("touched")
        store.put_artifact(NS, fp, _artifact("touched"))
        _backdate(store)
        aged = store.path_for(NS, fp).stat().st_mtime
        store.put_artifact(NS, fp, _artifact("touched"))
        assert store.path_for(NS, fp).stat().st_mtime > aged

    def test_fresh_tmp_is_left_for_its_writer(self, tmp_path):
        """A young *.tmp is an in-flight atomic write, not a stray."""
        store = ResultCache(tmp_path)
        fp = _fp("inflight")
        store.put_artifact(NS, fp, _artifact("inflight"))
        _backdate(store)
        tmp = store.path_for(NS, fp).with_suffix(".tmp")
        tmp.write_text("mid-write")  # fresh: inside TMP_GRACE
        _gc(store, keep=[fp])
        assert tmp.exists()

    def test_entry_vanishing_mid_sweep_is_tolerated(self, tmp_path, monkeypatch):
        """Another sweeper unlinking first is a skip, not an error."""
        store = ResultCache(tmp_path)
        ghost = _fp("ghost")
        monkeypatch.setattr(store, "fingerprints", lambda namespace: [ghost])
        assert _gc(store, keep=[]) == []
