"""The one canonical digest behind every fingerprint in the repository.

Three layers grew their own copy of the same idea — campaign
fingerprints (:func:`repro.core.sharding.campaign_fingerprint`), service
dedup keys (:meth:`repro.service.jobs.JobSpec.fingerprint`) and the
content-addressed store keys (re-exported as
:func:`repro.service.fingerprint_of`).  All three canonicalized a JSON
document and hashed it, and all three had to keep doing it
*byte-identically* or cached shards, dedup and stored artifacts would
silently stop matching across layers.  This module is
the single implementation they now share; the CCH008 lint rule keeps
new digest call sites from growing elsewhere.

Canonical form
--------------
``json.dumps(document, sort_keys=True)`` encoded as UTF-8, digested
with sha256.  Key order is canonical, floats round-trip through
``repr`` (exact for every finite double), and the separators are the
``json`` module defaults — matching the historical implementations
bit for bit, so every fingerprint ever written remains valid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = [
    "canonical_json",
    "fingerprint_of",
    "fingerprint_with_encoded",
    "sha256_bytes",
    "sha256_text",
    "netlist_fingerprint",
    "analog_fingerprint",
]


def canonical_json(document) -> str:
    """The canonical JSON serialization every fingerprint hashes.

    Deterministic across processes, threads and machines: key order is
    sorted, floats serialize via ``repr`` (exact round trip for finite
    doubles), and no environment-dependent state (locale, hash seed,
    dict insertion order) can leak in.
    """
    return json.dumps(document, sort_keys=True)


def fingerprint_of(document) -> str:
    """Canonical sha256 fingerprint of a JSON-encodable document."""
    return sha256_text(canonical_json(document))


def fingerprint_with_encoded(document: dict, encoded: dict[str, str]) -> str:
    """:func:`fingerprint_of` of ``{**document, **values}``, given
    ``encoded[key] == canonical_json(values[key])`` for every key.

    Lets a caller key many documents that share large values while
    encoding each value once.  The pre-encoded keys may sort anywhere
    among the document's keys: the canonical text is assembled entry by
    entry in sorted key order, and with the default separators a
    value's encoding does not depend on where it is nested.  A key may
    not appear in both ``document`` and ``encoded``.
    """
    if encoded.keys() & document.keys():
        raise ValueError(
            f"keys {sorted(encoded.keys() & document.keys())!r} are both "
            "in the document and pre-encoded"
        )
    entries = {key: canonical_json(value) for key, value in document.items()}
    entries.update(encoded)
    text = ", ".join(
        f"{json.dumps(key)}: {entries[key]}" for key in sorted(entries)
    )
    return sha256_text(f"{{{text}}}")


def sha256_bytes(payload: bytes) -> str:
    """Hex sha256 of raw bytes (blob integrity, manifest entries)."""
    return hashlib.sha256(payload).hexdigest()


def sha256_text(text: str) -> str:
    """Hex sha256 of UTF-8 encoded text."""
    return sha256_bytes(text.encode("utf-8"))


def netlist_fingerprint(circuit) -> str:
    """Structural content digest of a digital netlist.

    Covers the full functional identity of a
    :class:`repro.digital.Circuit` — name, primary inputs and outputs in
    declaration order, and every gate (output line, type, fan-in lines in
    pin order) — so two instances share a digest exactly when they are
    the same netlist.  Computed from the content on every call (no
    memo), so any in-place edit moves the digest; the generation cache
    keys on it.
    """
    return fingerprint_of(
        {
            "kind": "netlist",
            "name": circuit.name,
            "inputs": list(circuit.inputs),
            "outputs": list(circuit.outputs),
            "gates": [
                [gate.output, gate.gate_type.name, list(gate.fanins)]
                for gate in circuit.gates.values()
            ],
        }
    )


def analog_fingerprint(circuit) -> str:
    """Content digest of an analog block.

    Covers every component of a :class:`repro.spice.AnalogCircuit` in
    insertion order — its type and all of its dataclass fields (name,
    nodes, value and any model parameters).  Computed from the content
    on every call (no memo), so an in-place edit of any value always
    moves the digest.
    """
    return fingerprint_of(
        {
            "kind": "analog",
            "name": circuit.name,
            "components": [
                [type(component).__name__, dataclasses.asdict(component)]
                for component in circuit.components
            ],
        }
    )
