"""Backend differential suite: dense vs sparse on every registry circuit.

For every analog circuit in the default registry (including the analog
blocks of the mixed assemblies), the dense and sparse linear-system
backends must agree to 1e-9 on

* the DC operating point,
* an AC transfer sweep across five decades,
* a backward-Euler transient run,

and the fig4 fault campaign must produce the *identical* seeded outcome
list under ``backend="sparse"`` as under the dense reference oracle.

Marked ``slow``: the grid covers 500-node ladders; it runs in the slow
CI job next to the engine differential suite.
"""

import numpy as np
import pytest

from repro.api import CampaignConfig, Workbench, default_registry
from repro.core import run_campaign
from repro.spice import (
    MnaSolver,
    TransientSolver,
    VoltageSource,
    log_frequencies,
    sine,
)

pytestmark = pytest.mark.slow

#: |dense − sparse| bound on every compared sample.
TOLERANCE = 1e-9


def _analog_circuits():
    """Every analog network the registry knows: stand-alone filters,
    parametric ladders, and the analog blocks of mixed assemblies."""
    registry = default_registry()
    for spec in registry.specs("analog"):
        yield spec.name, registry.build(spec.name)
    for name in ("fig4",):
        yield f"{name}.analog", registry.build(name).analog


def _first_vsource(circuit) -> str | None:
    for component in circuit.components:
        if isinstance(component, VoltageSource):
            return component.name
    return None


CIRCUITS = dict(_analog_circuits())


@pytest.mark.parametrize("name", sorted(CIRCUITS))
class TestBackendsAgree:
    def test_dc_operating_point(self, name):
        circuit = CIRCUITS[name]
        dense = MnaSolver(circuit, backend="dense").solve_dc()
        sparse = MnaSolver(circuit, backend="sparse").solve_dc()
        for node in dense.nodes():
            assert abs(
                dense.voltage(node) - sparse.voltage(node)
            ) < TOLERANCE, f"{name}: DC mismatch at node {node}"

    def test_ac_sweep(self, name):
        circuit = CIRCUITS[name]
        dense = MnaSolver(circuit, backend="dense")
        sparse = MnaSolver(circuit, backend="sparse")
        for f in log_frequencies(10.0, 1.0e6, 3):
            dsol, ssol = dense.solve(f), sparse.solve(f)
            for node in dsol.nodes():
                assert abs(
                    dsol.voltage(node) - ssol.voltage(node)
                ) < TOLERANCE, f"{name}: AC mismatch at {node} @ {f} Hz"

    def test_transient_run(self, name):
        circuit = CIRCUITS[name]
        source = _first_vsource(circuit)
        waves = {source: sine(1.0, 2.0e3)} if source else None
        dense, sparse = (
            TransientSolver(circuit, backend=backend).run(2e-4, 2e-6, waves)
            for backend in ("dense", "sparse")
        )
        for node in dense.voltages:
            difference = np.max(
                np.abs(dense.waveform(node) - sparse.waveform(node))
            )
            assert difference < TOLERANCE, (
                f"{name}: transient mismatch at {node} ({difference})"
            )


class TestCampaignBackendEquality:
    def test_fig4_sparse_campaign_matches_reference(self):
        session = Workbench().session()
        mixed = session.circuit("fig4")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report

        def outcomes(engine: str, backend: str):
            result = run_campaign(
                mixed,
                report,
                config=CampaignConfig(
                    faults_per_element=4,
                    seed=99,
                    engine=engine,
                    backend=backend,
                ),
            )
            return [
                (o.element, o.deviation, o.severity, o.detected,
                 o.detecting_target)
                for o in result.outcomes
            ]

        reference = outcomes("reference", "dense")
        assert outcomes("factorized", "sparse") == reference
        assert outcomes("factorized", "dense") == reference

    def test_campaign_diagnostics_report_the_backend(self):
        session = Workbench().session()
        mixed = session.circuit("fig4")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report
        result = run_campaign(
            mixed,
            report,
            config=CampaignConfig(
                faults_per_element=2, seed=3, backend="sparse"
            ),
        )
        assert result.diagnostics["backend"] == "sparse"
        assert result.diagnostics["factorizations"] >= 1
