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

import random

import numpy as np
import pytest

from repro.analog.faultsim import (
    FactorizedEngine,
    ReferenceEngine,
    draw_faults,
)
from repro.api import Workbench, default_registry
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


def _fig4_population(faults_per_element: int, seed: int):
    """fig4, its testable program steps and a seeded fault population,
    drawn as ``run_campaign`` draws it."""
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    steps = [t for t in report.analog_tests if t.testable]
    faults = draw_faults(
        steps, faults_per_element, (0.5, 3.0), random.Random(seed)
    )
    return mixed, steps, faults


class TestCampaignBackendEquality:
    def test_fig4_sparse_campaign_matches_reference(self):
        mixed, steps, faults = _fig4_population(4, 99)
        reference = ReferenceEngine().run(mixed, steps, faults)
        for backend in ("sparse", "dense"):
            assert FactorizedEngine().run(
                mixed, steps, faults, backend=backend
            ) == reference

    def test_campaign_diagnostics_report_the_backend(self):
        mixed, steps, faults = _fig4_population(2, 3)
        engine = FactorizedEngine()
        engine.run(mixed, steps, faults, backend="sparse")
        assert engine.last_diagnostics["backend"] == "sparse"
        assert engine.last_diagnostics["factorizations"] >= 1
