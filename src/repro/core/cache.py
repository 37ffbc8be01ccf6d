"""Fingerprint-keyed result caching on disk.

Campaigns and generation runs are pure functions of their circuit
content and configs.  :class:`ResultCache` is the one store their
persisted results share (shard results, generation outputs, the service
artifact store, audit replays): a content-addressed on-disk cache,
``namespace + fingerprint → Artifact or binary blob``, laid out as
``<root>/<namespace>/<fp[:2]>/<fp>.json|.bin``.  Writes are atomic and
first-write-wins (a fingerprint names the *work*, and identical work
yields identical results), reads never trust the disk (torn, foreign or
corrupt entries are a miss, never an error), and ``gc`` never removes an
entry a concurrent ``put`` just wrote.  A service root is a ResultCache
root: finished job artifacts live in its ``objects`` namespace.

Namespaces in use (see ``docs/caching.md`` for the full map):
``objects`` (service artifact store), ``campaign-shard`` (shard results,
keyed by :func:`repro.core.sharding.shard_fingerprint`),
``pipeline-stage`` (generation-stage outputs, see
:mod:`repro.api.pipeline`) and ``audit`` (replayed engine outcomes of
the parity pack).  LU
factorizations are not cached: their owner (a campaign keeps one per
stimulus frequency, shared by its shards, each shard's update
directions released when the shard ends) refactors faster than a disk
read, and
compiled digital forms (:class:`repro.digital.CompiledCircuit`, the
BDDs) are built from the netlist by whoever uses them.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

from .atomic_io import (
    read_artifact,
    write_bytes_atomic,
    write_text_atomic,
)
from .fingerprint import sha256_bytes

__all__ = ["ResultCache", "check_fingerprint"]

#: a cache key is a full sha256 hex digest — nothing else.  Validating
#: the shape up front keeps lookups free of path games.
_FINGERPRINT = re.compile(r"^[0-9a-f]{64}$")

#: namespaces are short lowercase slugs; the same validation guards
#: directory traversal through the namespace component.
_NAMESPACE = re.compile(r"^[a-z][a-z0-9-]*$")

#: the two entry flavours a namespace can hold; everything else under a
#: shard directory (e.g. ``*.tmp``) is an in-flight or stray write.
_SUFFIXES = (".json", ".bin")


def _config_error(message: str) -> Exception:
    # Imported lazily: repro.api imports repro.core, so a module-level
    # import here would be a cycle.
    from ..api.config import ConfigError

    return ConfigError(message)


def check_fingerprint(fingerprint: str) -> str:
    """Validate a cache key; raises ``ConfigError`` on anything that is
    not a 64-char sha256 hex digest."""
    if not isinstance(fingerprint, str) or not _FINGERPRINT.match(fingerprint):
        raise _config_error(
            "fingerprint must be a 64-char sha256 hex digest, got "
            f"{fingerprint!r}"
        )
    return fingerprint


def _check_namespace(namespace: str) -> str:
    if not isinstance(namespace, str) or not _NAMESPACE.match(namespace):
        raise _config_error(
            "cache namespace must be a lowercase slug ([a-z][a-z0-9-]*), "
            f"got {namespace!r}"
        )
    return namespace


def _now() -> float:
    """Wall-clock time of cache liveness decisions.

    File mtimes are wall-clock stamps, so the liveness comparisons in
    :meth:`ResultCache.gc` must be too; the value never reaches a result
    or a fingerprint.  Module-level so tests monkeypatch it.
    """
    return time.time()  # repro-lint: disable=DET001 — mtime liveness only


class ResultCache:
    """A content-addressed, namespaced on-disk cache of results.

    Entries are either versioned :class:`repro.api.Artifact` JSON
    documents (``.json``) or integrity-checked binary blobs (``.bin``:
    a 64-hex sha256 header line followed by the payload, so torn or
    bit-rotted blobs read back as a miss and :meth:`verify` can prove
    every entry intact).  All writes go through
    :mod:`repro.core.atomic_io`; first write wins.
    """

    #: a ``*.tmp`` file younger than this many seconds is an in-flight
    #: atomic write, not a stray: ``gc`` leaves it for the writer's
    #: imminent ``os.replace`` instead of racing it.
    TMP_GRACE = 5.0

    def __init__(self, root: str | Path, now=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: injectable clock for gc liveness decisions (tests pin it).
        self._clock = now if now is not None else _now
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._bytes_written = 0
        self._bytes_read = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def path_for(
        self, namespace: str, fingerprint: str, suffix: str = ".json"
    ) -> Path:
        """Where the entry lives (whether or not it exists yet)."""
        namespace = _check_namespace(namespace)
        fingerprint = check_fingerprint(fingerprint)
        return self.root / namespace / fingerprint[:2] / f"{fingerprint}{suffix}"

    def namespaces(self) -> list[str]:
        """Every namespace directory present, sorted."""
        try:
            children = list(self.root.iterdir())
        except FileNotFoundError:
            return []
        return sorted(
            child.name
            for child in children
            if child.is_dir() and _NAMESPACE.match(child.name)
        )

    def fingerprints(self, namespace: str) -> list[str]:
        """Every fingerprint with an entry file in ``namespace``, sorted."""
        namespace = _check_namespace(namespace)
        return sorted(
            {
                path.stem
                for path in (self.root / namespace).glob("??/*")
                if path.suffix in _SUFFIXES and _FINGERPRINT.match(path.stem)
            }
        )

    def _iter_entries(
        self, namespace: str | None = None
    ) -> Iterator[tuple[str, Path]]:
        """Yield ``(namespace, path)`` per entry file, in sorted order."""
        spaces = [namespace] if namespace is not None else self.namespaces()
        for space in spaces:
            for path in sorted((self.root / space).glob("??/*")):
                if path.suffix in _SUFFIXES and _FINGERPRINT.match(path.stem):
                    yield space, path

    # ------------------------------------------------------------------
    # artifact entries
    # ------------------------------------------------------------------
    def put_artifact(self, namespace: str, fingerprint: str, artifact) -> Path:
        """Store an artifact under ``namespace/fingerprint``; first write
        wins.

        A fingerprint names the *work*, and identical work yields
        identical results — so an existing readable entry is kept
        untouched (its mtime freshened, marking it live to any
        concurrent ``gc``) and re-putting is free.  A torn entry left by
        a killed writer — or an entry a racing ``gc`` in another process
        unlinked between our read and our touch — is (re)written.
        """
        path = self.path_for(namespace, fingerprint)
        text = artifact.to_json() + "\n"
        with self._lock:
            if read_artifact(path) is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_text_atomic(path, text)
                self._puts += 1
                self._bytes_written += len(text)
            else:
                try:
                    os.utime(path)
                except FileNotFoundError:
                    # A cross-process gc removed the entry after we read
                    # it: re-write, the put must win.
                    write_text_atomic(path, text)
                    self._puts += 1
                    self._bytes_written += len(text)
        return path

    def get_artifact(
        self, namespace: str, fingerprint: str, kind: str | None = None
    ):
        """The stored artifact, or ``None`` on a miss (incl. torn or
        wrong-``kind`` entries)."""
        artifact = read_artifact(self.path_for(namespace, fingerprint), kind)
        with self._lock:
            if artifact is None:
                self._misses += 1
            else:
                self._hits += 1
        return artifact

    def has_artifact(self, namespace: str, fingerprint: str) -> bool:
        """Whether a *readable* artifact is stored under the key.

        Does not touch the hit/miss counters — membership probes are
        not lookups.
        """
        return read_artifact(self.path_for(namespace, fingerprint)) is not None

    # ------------------------------------------------------------------
    # blob entries
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_blob(blob: bytes) -> bytes | None:
        head, sep, payload = blob.partition(b"\n")
        if not sep or len(head) != 64:
            return None
        try:
            digest = head.decode("ascii")
        except UnicodeDecodeError:
            return None
        if sha256_bytes(payload) != digest:
            return None  # torn or bit-rotted: a miss, not an error
        return payload

    def _read_blob(self, path: Path) -> bytes | None:
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        return self._decode_blob(blob)

    def put_bytes(self, namespace: str, fingerprint: str, payload: bytes) -> Path:
        """Store a binary blob; first write wins (same rules as
        :meth:`put_artifact`).  The payload is stored behind a sha256
        header so reads and :meth:`verify` can prove it intact."""
        path = self.path_for(namespace, fingerprint, suffix=".bin")
        blob = sha256_bytes(payload).encode("ascii") + b"\n" + payload
        with self._lock:
            if self._read_blob(path) is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_bytes_atomic(path, blob)
                self._puts += 1
                self._bytes_written += len(blob)
            else:
                try:
                    os.utime(path)
                except FileNotFoundError:
                    write_bytes_atomic(path, blob)
                    self._puts += 1
                    self._bytes_written += len(blob)
        return path

    def get_bytes(self, namespace: str, fingerprint: str) -> bytes | None:
        """The stored blob payload, integrity-checked, or ``None``."""
        payload = self._read_blob(
            self.path_for(namespace, fingerprint, suffix=".bin")
        )
        with self._lock:
            if payload is None:
                self._misses += 1
            else:
                self._hits += 1
                self._bytes_read += len(payload)
        return payload

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc(
        self,
        keep: Iterable[str] | None = None,
        max_bytes: int | None = None,
        namespace: str | None = None,
    ) -> list[tuple[str, str]]:
        """Sweep the cache; returns ``(namespace, fingerprint)`` removed.

        Two independent policies compose:

        * ``keep`` — drop every entry of ``namespace`` (required with
          ``keep``) whose fingerprint is not in the set.
        * ``max_bytes`` — evict oldest-mtime entries (LRU by the mtimes
          ``put`` freshens) until the total entry size fits the bound.

        Only entries that predate the sweep are candidates: each path is
        re-stat'd immediately before its unlink, and anything written
        (or mtime-freshened by ``put``) at or after the sweep started is
        skipped — so a ``put`` racing a concurrent ``gc`` can never lose
        its freshly-written entry.  Stray ``*.tmp`` files older than
        :attr:`TMP_GRACE` are always swept.
        """
        removed: list[tuple[str, str]] = []
        with self._lock:
            start = self._clock()
            if keep is not None:
                if namespace is None:
                    raise _config_error(
                        "keep-based cache gc requires a namespace"
                    )
                keep_set = {check_fingerprint(fp) for fp in keep}
                for fingerprint in self.fingerprints(namespace):
                    if fingerprint in keep_set:
                        continue
                    dropped = False
                    for suffix in _SUFFIXES:
                        path = self.path_for(namespace, fingerprint, suffix)
                        try:
                            if path.stat().st_mtime >= start:
                                continue  # written during the sweep: keep
                            path.unlink()
                        except FileNotFoundError:
                            continue  # another sweeper got there first
                        dropped = True
                    if dropped:
                        removed.append((namespace, fingerprint))
            if max_bytes is not None:
                if max_bytes < 0:
                    raise _config_error(
                        f"max_bytes must be >= 0, got {max_bytes!r}"
                    )
                listing = []
                total = 0
                for space, path in self._iter_entries(namespace):
                    try:
                        stat = path.stat()
                    except FileNotFoundError:
                        continue
                    listing.append(
                        (stat.st_mtime, space, path, stat.st_size)
                    )
                    total += stat.st_size
                listing.sort(key=lambda item: (item[0], str(item[2])))
                for mtime, space, path, size in listing:
                    if total <= max_bytes:
                        break
                    if mtime >= start:
                        continue  # freshened during the sweep: keep it
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        continue
                    total -= size
                    removed.append((space, path.stem))
            pattern = (
                f"{namespace}/??/*.tmp" if namespace is not None else "*/??/*.tmp"
            )
            for stray in self.root.glob(pattern):
                try:
                    if stray.stat().st_mtime >= start - self.TMP_GRACE:
                        continue  # an atomic write still in flight
                    stray.unlink()
                except FileNotFoundError:
                    continue
        return sorted(removed)

    def verify(self, namespace: str | None = None) -> dict:
        """Re-read (and for blobs, re-hash) every entry.

        Returns ``{"checked", "ok", "corrupt": [...]}`` where each
        corrupt row names the namespace, fingerprint and path of an
        entry that no longer reads back — torn writes the atomic
        protocol should make impossible, or genuine disk corruption.
        """
        checked = ok = 0
        corrupt: list[dict] = []
        for space, path in self._iter_entries(namespace):
            checked += 1
            if path.suffix == ".bin":
                good = self._read_blob(path) is not None
            else:
                good = read_artifact(path) is not None
            if good:
                ok += 1
            else:
                corrupt.append(
                    {
                        "namespace": space,
                        "fingerprint": path.stem,
                        "path": str(path),
                    }
                )
        return {"checked": checked, "ok": ok, "corrupt": corrupt}

    def stats(self) -> dict:
        """Lookup counters plus a per-namespace occupancy map."""
        spaces = {}
        total_entries = 0
        total_bytes = 0
        for space, path in self._iter_entries():
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                continue
            row = spaces.setdefault(space, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
            total_entries += 1
            total_bytes += size
        with self._lock:
            return {
                "root": str(self.root),
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "bytes_written": self._bytes_written,
                "bytes_read": self._bytes_read,
                "entries": total_entries,
                "bytes": total_bytes,
                "namespaces": spaces,
            }
