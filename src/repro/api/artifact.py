"""The unified artifact model: one versioned JSON scheme for everything.

Reports, test programs, campaign results, ATPG runs and experiment
renderings all serialize through :class:`Artifact` — a small envelope
(``artifact_version`` / ``kind`` / ``circuit`` / ``payload`` / ``meta``)
with kind-specific payload codecs.  The scheme extends
:mod:`repro.core.program_io`: a ``program`` artifact's payload *is* the
program-IO document, and :meth:`Artifact.from_json` transparently
accepts legacy bare program documents, so every archive ever written by
``program_io.dumps`` stays loadable.

JSON is emitted strictly (no ``Infinity`` literals): untestable entries
whose E.D. is ``math.inf`` are encoded as ``null`` and restored on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..atpg import AnalogStimulus
from ..conversion import LadderCoverage
from ..core import (
    AnalogElementTest,
    AnalogTestStatus,
    Bound,
    CampaignResult,
    FailureRecord,
    InjectionOutcome,
    MixedTestReport,
    TestProgram,
)
from ..core import program_io

__all__ = ["ARTIFACT_VERSION", "ARTIFACT_KINDS", "Artifact", "AtpgSummary"]

ARTIFACT_VERSION = 1

ARTIFACT_KINDS = (
    "report",
    "program",
    "campaign",
    "campaign-shard",
    "atpg",
    "experiment",
    # A persisted service job (repro.service.jobs): its payload is the
    # job document — spec, state, timestamps, events, result pointer.
    "job",
    # Durable failure evidence (repro.core.resilience.FailureRecord):
    # what a quarantined shard or a poisoned job leaves behind for
    # auditors — phase, final error, attempts consumed, fingerprint.
    "failure",
    # A generic result-cache entry (repro.core.cache.ResultCache):
    # namespaced derived data — e.g. the audit pack's replayed engine
    # outcomes — whose payload schema is owned by the producer.
    "cache-entry",
)


@dataclass
class AtpgSummary:
    """Decoded digital-ATPG statistics (per-fault results are archived
    as counts, so a loaded summary answers the same questions as a live
    :class:`repro.atpg.AtpgRun` without carrying the fault objects)."""

    circuit_name: str
    n_inputs: int
    n_outputs: int
    n_faults: int
    constrained: bool
    n_untestable: int
    n_constrained_untestable: int
    n_detected: int
    vectors: list[dict[str, int]] = field(default_factory=list)
    cpu_seconds: float = 0.0

    @property
    def n_vectors(self) -> int:
        """Compacted vector count."""
        return len(self.vectors)

    @property
    def fault_coverage(self) -> float:
        """Detected / total, as a fraction."""
        if not self.n_faults:
            return 1.0
        return self.n_detected / self.n_faults


# ----------------------------------------------------------------------
# scalar helpers: strict JSON has no Infinity
# ----------------------------------------------------------------------
def _encode_ed(value: float) -> float | None:
    return None if math.isinf(value) else value


def _decode_ed(value: float | None) -> float:
    return math.inf if value is None else value


# ----------------------------------------------------------------------
# kind-specific codecs
# ----------------------------------------------------------------------
def _stimulus_document(stimulus: AnalogStimulus | None) -> dict | None:
    if stimulus is None:
        return None
    return {
        "amplitude": stimulus.amplitude,
        "frequency_hz": stimulus.frequency_hz,
        "description": stimulus.description,
    }


def _stimulus_from_document(doc: dict | None) -> AnalogStimulus | None:
    if doc is None:
        return None
    return AnalogStimulus(
        doc["amplitude"], doc["frequency_hz"], doc.get("description", "")
    )


def _analog_test_document(test: AnalogElementTest) -> dict:
    return {
        "element": test.element,
        "status": test.status.value,
        "parameter": test.parameter,
        "ed_percent": _encode_ed(test.ed_percent),
        "bound": None if test.bound is None else test.bound.value,
        "comparator_index": test.comparator_index,
        "stimulus": _stimulus_document(test.stimulus),
        "vector": test.vector,
        "observing_output": test.observing_output,
    }


def _analog_test_from_document(doc: dict) -> AnalogElementTest:
    return AnalogElementTest(
        element=doc["element"],
        status=AnalogTestStatus(doc["status"]),
        parameter=doc.get("parameter"),
        ed_percent=_decode_ed(doc.get("ed_percent")),
        bound=None if doc.get("bound") is None else Bound(doc["bound"]),
        comparator_index=doc.get("comparator_index"),
        stimulus=_stimulus_from_document(doc.get("stimulus")),
        vector=doc.get("vector"),
        observing_output=doc.get("observing_output"),
    )


def _atpg_document(run) -> dict:
    """Encode a live ``AtpgRun`` (or a decoded :class:`AtpgSummary`)."""
    return {
        "circuit_name": run.circuit_name,
        "n_inputs": run.n_inputs,
        "n_outputs": run.n_outputs,
        "n_faults": run.n_faults,
        "constrained": run.constrained,
        "n_untestable": run.n_untestable,
        "n_constrained_untestable": run.n_constrained_untestable,
        "n_detected": run.n_detected,
        "vectors": [dict(sorted(v.items())) for v in run.vectors],
        "cpu_seconds": run.cpu_seconds,
    }


def _atpg_from_document(doc: dict) -> AtpgSummary:
    return AtpgSummary(
        circuit_name=doc["circuit_name"],
        n_inputs=doc["n_inputs"],
        n_outputs=doc["n_outputs"],
        n_faults=doc["n_faults"],
        constrained=doc["constrained"],
        n_untestable=doc["n_untestable"],
        n_constrained_untestable=doc["n_constrained_untestable"],
        n_detected=doc["n_detected"],
        vectors=[dict(v) for v in doc["vectors"]],
        cpu_seconds=doc["cpu_seconds"],
    )


def _coverage_document(coverage: LadderCoverage | None) -> dict | None:
    if coverage is None:
        return None
    return {
        "taps": list(coverage.taps),
        "elements": list(coverage.elements),
        "ed_percent": [_encode_ed(ed) for ed in coverage.ed_percent],
    }


def _coverage_from_document(doc: dict | None) -> LadderCoverage | None:
    if doc is None:
        return None
    return LadderCoverage(
        taps=list(doc["taps"]),
        elements=list(doc["elements"]),
        ed_percent=[_decode_ed(ed) for ed in doc["ed_percent"]],
    )


def _report_document(report: MixedTestReport) -> dict:
    return {
        "circuit_name": report.circuit_name,
        "analog_tests": [
            _analog_test_document(t) for t in report.analog_tests
        ],
        "comparator_observability": list(report.comparator_observability),
        "conversion_coverage": _coverage_document(report.conversion_coverage),
        "digital_run": None
        if report.digital_run is None
        else _atpg_document(report.digital_run),
        "digital_run_unconstrained": None
        if report.digital_run_unconstrained is None
        else _atpg_document(report.digital_run_unconstrained),
    }


def _report_from_document(doc: dict) -> MixedTestReport:
    report = MixedTestReport(doc["circuit_name"])
    report.analog_tests = [
        _analog_test_from_document(t) for t in doc["analog_tests"]
    ]
    report.comparator_observability = list(doc["comparator_observability"])
    report.conversion_coverage = _coverage_from_document(
        doc.get("conversion_coverage")
    )
    if doc.get("digital_run") is not None:
        report.digital_run = _atpg_from_document(doc["digital_run"])
    if doc.get("digital_run_unconstrained") is not None:
        report.digital_run_unconstrained = _atpg_from_document(
            doc["digital_run_unconstrained"]
        )
    return report


def _campaign_document(result: CampaignResult) -> dict:
    document = {
        "outcomes": [
            {
                "element": o.element,
                "deviation": o.deviation,
                "severity": o.severity,
                "detected": o.detected,
                "detecting_target": o.detecting_target,
            }
            for o in result.outcomes
        ]
    }
    # Partial keys only appear on partial results, so the document of a
    # complete campaign is byte-identical to what every earlier version
    # of this codec wrote (and to a recovered-then-completed run).
    if result.partial:
        document["partial"] = True
        document["failed_shards"] = [dict(row) for row in result.failed_shards]
    return document


def _campaign_from_document(doc: dict) -> CampaignResult:
    return CampaignResult(
        outcomes=[
            InjectionOutcome(
                element=o["element"],
                deviation=o["deviation"],
                severity=o["severity"],
                detected=o["detected"],
                detecting_target=o.get("detecting_target"),
            )
            for o in doc["outcomes"]
        ],
        partial=bool(doc.get("partial", False)),
        failed_shards=[dict(row) for row in doc.get("failed_shards", [])],
    )


# ----------------------------------------------------------------------
@dataclass
class Artifact:
    """One serializable result of any workbench flow."""

    kind: str
    circuit: str | None
    payload: dict
    meta: dict = field(default_factory=dict)
    version: int = ARTIFACT_VERSION

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"kind must be one of {ARTIFACT_KINDS}, got {self.kind!r}"
            )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_report(
        cls,
        report: MixedTestReport,
        campaign: CampaignResult | None = None,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a generator report (optionally with its campaign)."""
        payload = {"report": _report_document(report)}
        if campaign is not None:
            payload["campaign"] = _campaign_document(campaign)
        return cls(
            kind="report",
            circuit=report.circuit_name,
            payload=payload,
            meta=dict(meta or {}),
        )

    @classmethod
    def from_program(
        cls, program: TestProgram, meta: dict | None = None
    ) -> "Artifact":
        """Wrap a test program; the payload is the program-IO document."""
        return cls(
            kind="program",
            circuit=program.circuit_name,
            payload=program_io.to_document(program),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_campaign(
        cls,
        result: CampaignResult,
        circuit: str | None = None,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a stand-alone campaign result."""
        return cls(
            kind="campaign",
            circuit=circuit,
            payload=_campaign_document(result),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_campaign_shard(
        cls,
        result: CampaignResult,
        shard_index: int,
        n_shards: int,
        fingerprint: str,
        circuit: str | None = None,
        seconds: float = 0.0,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap one completed campaign shard as a shard cache entry.

        The payload is a ``campaign`` document plus the shard's identity
        (index / total) and the fingerprint the entry is keyed by
        (:func:`repro.core.sharding.shard_fingerprint`), which
        :func:`repro.core.sharding.run_sharded_campaign` checks before
        trusting the entry on resume.
        """
        payload = _campaign_document(result)
        payload.update(
            {
                "shard_index": shard_index,
                "n_shards": n_shards,
                "fingerprint": fingerprint,
                "seconds": round(seconds, 6),
            }
        )
        return cls(
            kind="campaign-shard",
            circuit=circuit,
            payload=payload,
            meta=dict(meta or {}),
        )

    @classmethod
    def from_atpg(cls, run, meta: dict | None = None) -> "Artifact":
        """Wrap a digital ATPG run."""
        return cls(
            kind="atpg",
            circuit=run.circuit_name,
            payload=_atpg_document(run),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_job(
        cls,
        document: dict,
        circuit: str | None = None,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a service job document (:mod:`repro.service.jobs`)."""
        return cls(
            kind="job",
            circuit=circuit,
            payload=dict(document),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_cache_entry(
        cls,
        namespace: str,
        document: dict,
        circuit: str | None = None,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a generic result-cache document
        (:class:`repro.core.cache.ResultCache` entries whose schema is
        owned by the producer, e.g. the audit pack's replayed engine
        outcomes).  The producing namespace rides in the payload so a
        loose entry file is self-describing."""
        return cls(
            kind="cache-entry",
            circuit=circuit,
            payload={"namespace": namespace, "document": dict(document)},
            meta=dict(meta or {}),
        )

    @classmethod
    def from_failure(
        cls,
        record,
        circuit: str | None = None,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a :class:`repro.core.resilience.FailureRecord` as durable
        evidence (a quarantined shard's or poisoned job's post-mortem)."""
        return cls(
            kind="failure",
            circuit=circuit,
            payload=record.to_document(),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_experiment(
        cls,
        name: str,
        rendered: str,
        seconds: float,
        meta: dict | None = None,
    ) -> "Artifact":
        """Wrap a rendered experiment (table/figure regeneration)."""
        return cls(
            kind="experiment",
            circuit=None,
            payload={"name": name, "rendered": rendered, "seconds": seconds},
            meta=dict(meta or {}),
        )

    # -- decoding -------------------------------------------------------
    def report(self) -> MixedTestReport:
        """Decode a ``report`` artifact back into a report object."""
        if self.kind != "report":
            raise ValueError(f"artifact of kind {self.kind!r} has no report")
        return _report_from_document(self.payload["report"])

    def campaign(self) -> CampaignResult:
        """Decode the campaign outcomes from a ``campaign``,
        ``campaign-shard`` or ``report`` artifact."""
        if self.kind in ("campaign", "campaign-shard"):
            return _campaign_from_document(self.payload)
        if self.kind == "report" and "campaign" in self.payload:
            return _campaign_from_document(self.payload["campaign"])
        raise ValueError(f"artifact of kind {self.kind!r} has no campaign")

    def program(self) -> TestProgram:
        """Decode a ``program`` artifact back into a test program."""
        if self.kind != "program":
            raise ValueError(f"artifact of kind {self.kind!r} has no program")
        return program_io.from_document(self.payload)

    def atpg(self) -> AtpgSummary:
        """Decode an ``atpg`` artifact into its summary statistics."""
        if self.kind != "atpg":
            raise ValueError(f"artifact of kind {self.kind!r} has no ATPG run")
        return _atpg_from_document(self.payload)

    def failure(self) -> FailureRecord:
        """Decode a ``failure`` artifact back into its record."""
        if self.kind != "failure":
            raise ValueError(f"artifact of kind {self.kind!r} has no failure")
        return FailureRecord.from_document(self.payload)

    # -- the envelope ---------------------------------------------------
    def to_document(self) -> dict:
        """The versioned envelope as a plain dict."""
        return {
            "artifact_version": self.version,
            "kind": self.kind,
            "circuit": self.circuit,
            "payload": self.payload,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        """Stable, strict (no ``Infinity``) JSON rendering."""
        return json.dumps(
            self.to_document(), indent=2, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_document(cls, document: dict) -> "Artifact":
        """Parse an envelope dict (legacy program docs are adapted)."""
        if "artifact_version" not in document:
            # A bare repro.core.program_io document: adapt in place.
            program = program_io.from_document(document)
            return cls.from_program(program, meta={"legacy_program_io": True})
        version = document["artifact_version"]
        if version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version!r}")
        return cls(
            kind=document["kind"],
            circuit=document.get("circuit"),
            payload=document["payload"],
            meta=dict(document.get("meta", {})),
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "Artifact":
        """Parse JSON produced by :meth:`to_json` (or legacy program IO)."""
        return cls.from_document(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the artifact to ``path``; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Artifact":
        """Read an artifact (or legacy program document) from disk."""
        return cls.from_json(Path(path).read_text())
