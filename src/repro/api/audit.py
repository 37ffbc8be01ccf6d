"""Replay-and-cross-check audit: prove a campaign's engines agree.

``python -m repro audit <artifact|run-dir|fingerprint>`` replays a
recorded campaign from its artifact and executes the same seeded fault
population on every engine pairing the repository maintains as
equivalent:

* ``reference`` vs ``factorized`` — the oracle re-solve against the
  LU + Sherman–Morrison fast path;
* ``dense`` vs ``sparse`` — the two linear-system backends;
* ``compiled`` vs ``reference`` digital — the levelized evaluator
  against the dict-walking interpreter;

plus, when the artifact recorded campaign outcomes, recorded vs
replayed.  Each variant is one direct engine call on the fault
population the audit draws; the engines keep their ``backend`` and
``digital_engine`` choices for exactly this, while campaigns always run
the defaults.  Every comparison is on the *canonical campaign document*
(the artifact codec's outcome list), compared byte-for-byte after
canonical JSON serialization — the same bytes the fingerprints hash.

The audit emits an **evidence bundle**: one campaign artifact per
variant, the audit summary, and a ``manifest.json`` mapping every file
in the bundle to its sha256 — so the bundle is self-verifying and any
later tampering or bit rot is detectable.

With a :class:`repro.core.cache.ResultCache` attached, each variant's
replay is published under the ``audit`` namespace as a ``cache-entry``
artifact keyed by ``(campaign fingerprint, variant)`` — re-auditing an
unchanged campaign replays nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..analog.faultsim import CampaignResult, FactorizedEngine, ReferenceEngine
from ..core.fingerprint import canonical_json, fingerprint_of, sha256_text
from .artifact import Artifact
from .config import AtpgConfig, CampaignConfig, ConfigError, GeneratorConfig

__all__ = ["AUDIT_NAMESPACE", "AuditResult", "resolve_target", "run_audit"]

#: result-cache namespace audit replays are published under.
AUDIT_NAMESPACE = "audit"

#: the engine pairings audited, as ``(name, left variant, right variant)``.
AUDIT_PAIRS = (
    ("reference-vs-factorized", "reference", "factorized"),
    ("dense-vs-sparse", "dense", "sparse"),
    ("compiled-vs-reference-digital", "factorized", "digital-reference"),
)

#: replay variant -> (engine class, keyword arguments of its ``run``).
_VARIANTS = {
    "factorized": (FactorizedEngine, {}),
    "reference": (ReferenceEngine, {}),
    "dense": (FactorizedEngine, {"backend": "dense"}),
    "sparse": (FactorizedEngine, {"backend": "sparse"}),
    "digital-reference": (FactorizedEngine, {"digital_engine": "reference"}),
}


@dataclass
class AuditResult:
    """Outcome of one audit: per-variant digests and pair verdicts."""

    circuit: str
    fingerprint: str
    n_faults: int
    variants: dict = field(default_factory=dict)
    comparisons: list = field(default_factory=list)
    recorded_match: bool | None = None
    bundle_dir: str | None = None

    @property
    def ok(self) -> bool:
        """True when every pair agrees and the recording (if any) matches."""
        return all(row["agree"] for row in self.comparisons) and (
            self.recorded_match is not False
        )

    def to_document(self) -> dict:
        """Plain-dict form (the bundle's ``audit.json``)."""
        return {
            "kind": "audit",
            "circuit": self.circuit,
            "fingerprint": self.fingerprint,
            "n_faults": self.n_faults,
            "variants": self.variants,
            "comparisons": self.comparisons,
            "recorded_match": self.recorded_match,
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [
            f"audit: {self.circuit}  ({self.n_faults} faults, "
            f"fingerprint {self.fingerprint[:12]}...)"
        ]
        for row in self.comparisons:
            mark = "ok " if row["agree"] else "FAIL"
            lines.append(f"  [{mark}] {row['pair']}")
        if self.recorded_match is not None:
            mark = "ok " if self.recorded_match else "FAIL"
            lines.append(f"  [{mark}] recorded-vs-replayed")
        if self.bundle_dir:
            lines.append(f"evidence bundle: {self.bundle_dir}")
        lines.append(
            "audit: all engine pairs agree"
            if self.ok
            else "audit: DISAGREEMENT detected"
        )
        return "\n".join(lines)


def resolve_target(target: str, store: str | None = None) -> Artifact:
    """Map an audit target to its report artifact.

    ``target`` is an artifact JSON path, a run directory containing one,
    or a 64-hex store fingerprint (requires ``store``).  Raises
    :class:`ConfigError` on anything unresolvable.
    """
    path = Path(target)
    if path.is_file():
        artifact = _load_report(path)
        if artifact is None:
            raise ConfigError(
                f"{target!r} is not a readable report artifact"
            )
        return artifact
    if path.is_dir():
        for candidate in sorted(path.glob("*.json")):
            artifact = _load_report(candidate)
            if artifact is not None:
                return artifact
        raise ConfigError(
            f"run directory {target!r} holds no report artifact"
        )
    if len(target) == 64 and all(c in "0123456789abcdef" for c in target):
        if store is None:
            raise ConfigError(
                "auditing a fingerprint needs --store pointing at the "
                "service root"
            )
        from ..core.cache import ResultCache
        from ..service.jobs import STORE_NAMESPACE

        artifact = ResultCache(store).get_artifact(
            STORE_NAMESPACE, target, kind="report"
        )
        if artifact is None:
            raise ConfigError(
                f"no report artifact stored under {target!r}"
            )
        return artifact
    raise ConfigError(
        f"audit target {target!r} is neither an artifact file, a run "
        "directory, nor a store fingerprint"
    )


def _load_report(path: Path) -> Artifact | None:
    from ..core.atomic_io import read_artifact

    return read_artifact(path, kind="report")


def _configs_from(artifact: Artifact):
    """Rebuild the typed configs a report artifact was produced with.

    A recorded config this version cannot rebuild raises
    :class:`ConfigError`: auditing the defaults instead would replay a
    different campaign than the one recorded.
    """
    configs = artifact.meta.get("configs") or {}
    try:
        return (
            GeneratorConfig.from_document(configs.get("generator") or {}),
            CampaignConfig.from_document(configs.get("campaign") or {}),
            AtpgConfig.from_document(configs.get("atpg") or {}),
        )
    except TypeError as error:
        raise ConfigError(
            f"report artifact records configs this version cannot load: "
            f"{error}"
        ) from None


def run_audit(
    artifact: Artifact,
    out_dir: str | None = None,
    cache=None,
    registry=None,
) -> AuditResult:
    """Replay ``artifact``'s campaign across every audited engine pair.

    ``out_dir`` receives the hash-manifested evidence bundle; ``cache``
    (a :class:`repro.core.cache.ResultCache`) serves unchanged replays
    from the ``audit`` namespace instead of re-executing them.
    """
    from ..core.campaign import draw_population
    from ..core.sharding import campaign_fingerprint
    from .session import Workbench

    circuit_name = artifact.meta.get("registry_name") or artifact.circuit
    if not circuit_name:
        raise ConfigError("report artifact names no circuit to replay")
    generator, campaign, atpg = _configs_from(artifact)

    # Replay the recorded generation stages (the campaign itself is
    # re-run per variant below): stages like "deviation" shape the
    # report, so dropping them would audit a different campaign.
    stages = tuple(
        s for s in artifact.meta.get("stages", ()) if s != "campaign"
    ) or ("sensitivity", "stimulus", "conversion", "atpg")
    session = Workbench(registry).session()
    mixed = session.circuit(circuit_name)
    replayed = session.run(
        mixed, stages=stages, generator=generator, atpg=atpg
    )
    report = replayed.report
    testable, faults = draw_population(report, campaign)
    fingerprint = campaign_fingerprint(mixed.name, campaign, faults, testable)

    audit = AuditResult(
        circuit=mixed.name, fingerprint=fingerprint, n_faults=len(faults)
    )
    documents: dict[str, dict] = {}
    for variant in sorted({v for _, a, b in AUDIT_PAIRS for v in (a, b)}):
        engine, options = _VARIANTS[variant]
        document = _cached_replay(
            cache, fingerprint, variant, mixed, testable, faults
        )
        documents[variant] = document
        audit.variants[variant] = {
            "sha256": sha256_text(canonical_json(document)),
            "n_outcomes": len(document.get("outcomes", [])),
            "config": {
                "engine": engine.name,
                "backend": "auto",
                "digital_engine": "compiled",
                **options,
            },
        }
    for pair, left, right in AUDIT_PAIRS:
        audit.comparisons.append(
            {
                "pair": pair,
                "left": left,
                "right": right,
                "agree": audit.variants[left]["sha256"]
                == audit.variants[right]["sha256"],
            }
        )
    recorded = None
    if artifact.kind == "report" and "campaign" in artifact.payload:
        recorded = artifact.payload["campaign"]
        audit.recorded_match = sha256_text(
            canonical_json(recorded)
        ) == audit.variants["factorized"]["sha256"]
    if out_dir is not None:
        audit.bundle_dir = str(
            _write_bundle(out_dir, audit, documents, recorded)
        )
    return audit


def _cached_replay(cache, fingerprint, variant, mixed, steps, faults):
    """One variant's canonical campaign document, cache-served if known."""
    key = fingerprint_of(
        {
            "kind": "audit-replay",
            "campaign": fingerprint,
            "variant": variant,
        }
    )
    if cache is not None:
        entry = cache.get_artifact(AUDIT_NAMESPACE, key, kind="cache-entry")
        if entry is not None and entry.payload.get("namespace") == (
            AUDIT_NAMESPACE
        ):
            return entry.payload["document"]
    engine, options = _VARIANTS[variant]
    outcomes = engine().run(mixed, steps, faults, **options)
    document = Artifact.from_campaign(
        CampaignResult(outcomes=outcomes)
    ).payload
    if cache is not None:
        cache.put_artifact(
            AUDIT_NAMESPACE,
            key,
            Artifact.from_cache_entry(
                AUDIT_NAMESPACE,
                document,
                circuit=mixed.name,
                meta={"variant": variant, "campaign": fingerprint},
            ),
        )
    return document


def _write_bundle(out_dir, audit, documents, recorded) -> Path:
    """Write the evidence bundle and its sha256 manifest."""
    from ..core.atomic_io import write_artifact_atomic, write_text_atomic

    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    for variant, document in documents.items():
        name = f"replay-{variant}.json"
        write_artifact_atomic(
            root / name,
            Artifact(
                kind="campaign",
                circuit=audit.circuit,
                payload=dict(document),
                meta={"variant": variant, "campaign": audit.fingerprint},
            ),
        )
        files.append(name)
    if recorded is not None:
        write_artifact_atomic(
            root / "recorded.json",
            Artifact(
                kind="campaign",
                circuit=audit.circuit,
                payload=dict(recorded),
                meta={"variant": "recorded", "campaign": audit.fingerprint},
            ),
        )
        files.append("recorded.json")
    write_text_atomic(
        root / "audit.json", canonical_json(audit.to_document()) + "\n"
    )
    files.append("audit.json")
    manifest = {
        name: sha256_text((root / name).read_text()) for name in sorted(files)
    }
    write_text_atomic(
        root / "manifest.json", canonical_json(manifest) + "\n"
    )
    return root
