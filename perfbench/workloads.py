"""The benchmark's four workloads: setup, a fixed job list, output digests.

Each workload object is built inside a fresh worker process.  ``setup``
does everything a user pays before the first job (imports, registry,
circuit construction, server bind) and reports its parts; ``jobs(pass_no)``
returns the pass's job list as ``(key, callable)`` pairs.  A job returns
``(summary, identity)``: ``summary`` is compared with the reference
recorded from the seed tree, ``identity`` between pass 1 and pass 2 of the
same key (for service artifacts it is the digest of the served bytes).

Inputs come from the run's *variant*, ``seed % VARIANTS``, so a seed always
selects the same inputs and every input has a recorded reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
import time
from pathlib import Path

VARIANTS = 8

#: keys dropped before digesting: wall-clock fields, not outputs.
_TIMING_KEYS = frozenset({"cpu_seconds", "seconds", "elapsed", "timings"})


def canonical(value):
    """Drop timing fields and round floats to 10 significant digits."""
    if isinstance(value, dict):
        return {
            key: canonical(item)
            for key, item in value.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def digest(document) -> str:
    text = json.dumps(canonical(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_digest(document: dict) -> str:
    """Digest of an artifact envelope's output: kind, circuit, payload."""
    return digest({key: document[key] for key in ("kind", "circuit", "payload")})


class _Timer:
    """Times the named phases of a workload's setup."""

    def __init__(self):
        self.parts: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.parts[name] = time.perf_counter() - start


class Workload:
    name = ""

    def __init__(self, variant: int, root: Path, repo: Path):
        self.variant = variant
        self.root = root
        self.repo = repo
        self.timer = _Timer()

    def setup(self) -> None:
        raise NotImplementedError

    def jobs(self, pass_no: int) -> list:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
class Fig4Campaign(Workload):
    """``Workbench().campaign("fig4")`` with a per-run ``cache_dir``."""

    name = "fig4-campaign"

    def setup(self):
        with self.timer.phase("import_s"):
            from repro.api import CampaignConfig, Workbench, default_registry
        with self.timer.phase("registry_s"):
            registry = default_registry()
        with self.timer.phase("circuit_build_s"):
            self.workbench = Workbench(registry)
            self.workbench.session().circuit("fig4")
        self.config = CampaignConfig(
            seed=7000 + self.variant, cache_dir=str(self.root / "cache")
        )

    def jobs(self, pass_no):
        from repro.api import Artifact

        def run():
            result = self.workbench.campaign("fig4", campaign=self.config)
            artifact = Artifact.from_report(result.report, campaign=result.campaign)
            summary = {"digest": artifact_digest(artifact.to_document())}
            return summary, summary

        return [(f"fig4/seed={self.config.seed}", run)]


class AtpgC499(Workload):
    """Table 4's c499 row: unconstrained and thermometer-constrained ATPG."""

    name = "atpg-c499"

    def setup(self):
        with self.timer.phase("import_s"):
            from repro.circuits import benchmark_digital
            from repro.experiments import table4
        with self.timer.phase("circuit_build_s"):
            benchmark_digital("c499")
        self.table4 = table4

    def jobs(self, pass_no):
        def run():
            row = self.table4.run(("c499",)).rows[0]
            statuses = {
                label: [[str(r.fault), r.status.value] for r in atpg.results]
                for label, atpg in (
                    ("without", row.without),
                    ("with", row.with_constraints),
                )
            }
            summary = {
                "digest": digest(statuses),
                "untestable": [
                    row.without.n_untestable, row.with_constraints.n_untestable
                ],
                "vectors": [row.without.n_vectors, row.with_constraints.n_vectors],
            }
            return summary, summary

        return [("c499", run)]


class LadderCampaign(Workload):
    """Sharded campaigns over the 512-section RC-ladder harness."""

    name = "ladder-campaign"
    sections = 512
    campaigns = 8
    faults_per_element = 3

    def setup(self):
        with self.timer.phase("import_s"):
            from repro.api import CampaignConfig
            from repro.core import run_campaign
        with self.timer.phase("circuit_build_s"):
            self.mixed, self.report = ladder_campaign_harness(self.sections)
        self.run_campaign = run_campaign
        self.configs = [
            CampaignConfig(
                seed=100 * self.variant + index,
                faults_per_element=self.faults_per_element,
                shards=4,
                shard_workers=2,
                cache_dir=str(self.root / "cache"),
            )
            for index in range(1, self.campaigns + 1)
        ]

    def jobs(self, pass_no):
        from repro.api import Artifact

        def job(config):
            def run():
                result = self.run_campaign(self.mixed, self.report, config=config)
                artifact = Artifact.from_campaign(result, circuit=self.mixed.name)
                summary = {
                    "digest": artifact_digest(artifact.to_document()),
                    "faults": result.n_injected,
                }
                return summary, summary

            return run

        return [
            (f"ladder{self.sections}/seed={config.seed}", job(config))
            for config in self.configs
        ]


class ServiceJobs(Workload):
    """An in-process service, one closed-loop client, dedup resubmission."""

    name = "service-jobs"
    #: pass 2 resubmits the pass-1 specs this many times each.
    resubmissions = 50

    def setup(self):
        with self.timer.phase("import_s"):
            from repro.api import Workbench, default_registry
            from repro.service import ServiceClient, make_server
        with self.timer.phase("registry_s"):
            registry = default_registry()
        with self.timer.phase("server_s"):
            self.server = make_server(
                self.root / "service", workers=1, workbench=Workbench(registry)
            )
            self.thread = threading.Thread(
                target=self.server.serve_forever, name="perfbench-server"
            )
            self.thread.start()
            self.client = ServiceClient(self.server.url)
            self.client.health()
        self.specs = [
            ("fig4", 2024),
            ("fig4", 3000 + self.variant),
            ("example3-c432", 5000 + self.variant),
        ]
        self.job_documents: list[dict] = []

    def _job(self, circuit, seed):
        def run():
            job = self.client.submit(
                circuit, campaign={"seed": seed, "faults_per_element": 3}
            )
            done = self.client.wait(job["job_id"], poll=0.01)
            if done["state"] != "done":
                raise RuntimeError(f"job {done['job_id']} ended {done['state']}")
            self.job_documents.append(done)
            text = self.client.artifact_text(done["artifact"])
            summary = {"digest": artifact_digest(json.loads(text))}
            if (circuit, seed) == ("fig4", 2024):
                summary["golden"] = self._matches_golden(text)
            return summary, hashlib.sha256(text.encode("utf-8")).hexdigest()

        return run

    def _matches_golden(self, text: str) -> bool:
        """Compare as ``tests/analog/test_campaign_golden.py`` does."""
        from repro.api import Artifact
        from repro.core import CampaignResult, InjectionOutcome

        golden_path = self.repo / "tests" / "analog" / "goldens" / "fig4_campaign.json"
        golden_text = golden_path.read_text()
        result = Artifact.from_json(text).campaign()
        rounded = CampaignResult(
            outcomes=[
                InjectionOutcome(
                    element=o.element,
                    deviation=round(o.deviation, 12),
                    severity=round(o.severity, 12),
                    detected=o.detected,
                    detecting_target=o.detecting_target,
                )
                for o in result.outcomes
            ]
        )
        regenerated = Artifact.from_campaign(
            rounded, circuit="fig4", meta=Artifact.from_json(golden_text).meta
        )
        return regenerated.to_json() + "\n" == golden_text

    def jobs(self, pass_no):
        rounds = 1 if pass_no == 1 else self.resubmissions
        return [
            (f"{circuit}/seed={seed}", self._job(circuit, seed))
            for _ in range(rounds)
            for circuit, seed in self.specs
        ]

    def teardown(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


WORKLOADS = {
    cls.name: cls for cls in (Fig4Campaign, AtpgC499, LadderCampaign, ServiceJobs)
}


# ----------------------------------------------------------------------
def ladder_campaign_harness(n_sections: int):
    """A campaign-shaped workload at ``rc_ladder(n_sections)`` scale.

    The registry ladder is wrapped in a mixed-signal circuit with the fig3
    digital block and a flash converter whose two thresholds sit a few µV
    apart around the fault-free response, so any fault that moves the
    observed gain crosses a comparator.  One test step per ladder element,
    all at one stimulus frequency near the ladder's cut-off.
    """
    from types import SimpleNamespace

    from repro.atpg import AnalogStimulus
    from repro.circuits import (
        FIG3_CONSTRAINT_LINES,
        LADDER_OUTPUT,
        LADDER_SOURCE,
        fig3_circuit,
        rc_ladder,
    )
    from repro.conversion import FlashAdc
    from repro.core.coverage import AnalogElementTest, AnalogTestStatus
    from repro.core.mixed_circuit import MixedSignalCircuit
    from repro.digital import simulate
    from repro.spice import MnaSolver

    analog = rc_ladder(n_sections)
    adc = FlashAdc(n_comparators=2, v_top=5.0, resistor_values=[1.0e6, 2.0, 1.0e6])
    digital = fig3_circuit()
    mixed = MixedSignalCircuit(
        name=f"rc-ladder-{n_sections}-campaign",
        analog=analog,
        analog_source=LADDER_SOURCE,
        analog_output=LADDER_OUTPUT,
        adc=adc,
        digital=digital,
        converter_lines=list(FIG3_CONSTRAINT_LINES),
    )
    frequency = 1.0 / (n_sections**2 * 1.0e3 * 1.0e-9)
    source = analog.component(LADDER_SOURCE)
    saved = (source.ac, source.dc)
    source.ac, source.dc = 1.0, 0.0
    try:
        gain = abs(MnaSolver(analog).solve(frequency).voltage(LADDER_OUTPUT))
    finally:
        source.ac, source.dc = saved
    thresholds = adc.thresholds()
    amplitude = (thresholds[0] + thresholds[1]) / (2.0 * gain)
    # A free-input vector under which both code flips reach an output.
    lines = list(FIG3_CONSTRAINT_LINES)
    free = [name for name in digital.inputs if name not in lines]

    def words(vector, code):
        assignment = dict(vector)
        assignment.update(zip(lines, code))
        response = simulate(digital, assignment)
        return tuple(response[o] for o in digital.outputs)

    vector = None
    for bits in range(1 << len(free)):
        candidate = {name: (bits >> i) & 1 for i, name in enumerate(free)}
        good = words(candidate, (1, 0))
        if good != words(candidate, (1, 1)) and good != words(candidate, (0, 0)):
            vector = candidate
            break
    if vector is None:
        raise RuntimeError("no propagating vector for the fig3 block")

    stimulus = AnalogStimulus(amplitude=amplitude, frequency_hz=frequency)
    steps = [
        AnalogElementTest(
            element=element,
            status=AnalogTestStatus.TESTABLE,
            parameter="AAC",
            ed_percent=40.0,
            stimulus=stimulus,
            vector=dict(vector),
            observing_output=digital.outputs[0],
        )
        for element in analog.element_names()
    ]
    return mixed, SimpleNamespace(analog_tests=steps)
