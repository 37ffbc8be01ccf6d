"""Atomic, torn-write-tolerant artifact persistence.

The result cache (:mod:`repro.core.cache`), the shard failure records
(:mod:`repro.core.sharding`) and the service's job files share one
durability contract:

* **Writes are atomic.**  The document lands in a same-directory
  temporary file first and is moved into place with :func:`os.replace`,
  so a killed process can leave behind a stray ``*.tmp`` file but never
  a half-written artifact under the real name.
* **Reads never trust the disk.**  A missing, torn, foreign or
  wrong-kind file reads back as ``None`` — the caller recomputes instead
  of crashing on state it does not own.

The helpers live in :mod:`repro.core` (not the service layer) because
the campaign executor persists results without depending on it.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "write_text_atomic",
    "write_bytes_atomic",
    "write_artifact_atomic",
    "read_artifact",
    "read_artifact_text",
]


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temporary file lives next to the target (``os.replace`` is only
    atomic within one filesystem) and carries the process id, so
    concurrent writers of the same path never clobber each other's
    in-flight temp file — last replace wins, and every intermediate
    state observed by a reader is a complete document.
    """
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temporary.write_text(text)
    temporary.replace(path)  # atomic: a killed run never leaves a torn file
    return path


def write_bytes_atomic(path: str | Path, payload: bytes) -> Path:
    """Write raw bytes to ``path`` atomically (temp file + rename).

    The binary sibling of :func:`write_text_atomic`, with the same
    same-directory pid-tagged temp file; used by the result cache for
    blob entries (serialized factorizations and other non-JSON payloads).
    """
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temporary.write_bytes(payload)
    temporary.replace(path)  # atomic: a killed run never leaves a torn file
    return path


def write_artifact_atomic(path: str | Path, artifact) -> Path:
    """Persist a :class:`repro.api.Artifact` atomically as JSON."""
    return write_text_atomic(path, artifact.to_json() + "\n")


def read_artifact(path: str | Path, kind: str | None = None):
    """Load an artifact, or ``None`` when the file cannot be trusted.

    ``None`` is returned for a missing path, a torn or non-JSON file, a
    document that is not a valid artifact envelope, and — when ``kind``
    is given — an artifact of any other kind.  Callers treat ``None`` as
    "recompute": stale state is never an error, only a cache miss.
    """
    loaded = _load_artifact(path, kind)
    return None if loaded is None else loaded[1]


def read_artifact_text(path: str | Path) -> str | None:
    """The file's text, read once, when it holds an artifact
    :func:`read_artifact` would load — else ``None``.

    For serving stored bytes verbatim: the text returned is the text
    validated, so a concurrent delete or rewrite cannot slip between a
    membership check and the read.
    """
    loaded = _load_artifact(path, None)
    return None if loaded is None else loaded[0]


def _load_artifact(path: str | Path, kind: str | None):
    # Imported lazily: repro.api.artifact imports repro.core, so a
    # module-level import here would be a cycle.
    from ..api.artifact import Artifact

    try:
        text = Path(path).read_text()
        artifact = Artifact.from_json(text)
    except (ValueError, KeyError, TypeError, AttributeError, OSError):
        # Missing, torn, foreign or wrong-shaped file (e.g. a JSON list
        # falls into the legacy program adapter): a miss, not an error.
        return None
    if kind is not None and artifact.kind != kind:
        return None
    return text, artifact
