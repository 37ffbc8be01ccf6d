"""Campaigns and sweeps only read the circuit they measure.

The factorized campaign engine, :func:`repro.spice.sweep` and
``MnaSolver(circuit, source=...)`` drive the measured source at unit
amplitude by stamping a copy of it.
The shared :class:`~repro.spice.VoltageSource` is never written, so one
circuit object can serve concurrent campaigns.  A deviation state is
always an argument — of every measurement, of the reference engine's
faulty solves and of fault activation — and never held by the circuit,
so threads sharing one circuit get the serial results and leave the
circuit as it was.
"""

import random
import sys
import threading

import pytest

from repro.analog import parametric
from repro.analog.faultsim import ReferenceEngine, draw_faults
from repro.api import CampaignConfig, Workbench
from repro.core import Bound, activate, choose_stimulus, run_campaign
from repro.core.fingerprint import analog_fingerprint
from repro.spice import MnaSolver, VoltageSource, sweep


@pytest.fixture(scope="module")
def prepared():
    session = Workbench().session()
    mixed = session.circuit("fig4")
    report = session.run(mixed, stages=("sensitivity", "stimulus")).report
    return mixed, report


def _outcomes(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


class TestSourceNeverWritten:
    def test_no_level_write_during_campaign_sweep_and_solve(
        self, prepared, monkeypatch
    ):
        mixed, report = prepared
        circuit = mixed.analog
        source = circuit.component(mixed.analog_source)
        writes = []
        original = VoltageSource.__setattr__

        def spy(self, name, value):
            if self is source and name in ("ac", "dc"):
                writes.append((name, value))
            original(self, name, value)

        monkeypatch.setattr(VoltageSource, "__setattr__", spy)
        result = run_campaign(
            mixed,
            report,
            config=CampaignConfig(faults_per_element=2, seed=7),
        )
        assert result.n_injected > 0
        sweep(circuit, source.name, mixed.analog_output, [0.0, 1e3, 1e4])
        solver = MnaSolver(circuit, source=source.name)
        for frequency in (0.0, 1e3):
            solver.solve(frequency)
        assert writes == []


class TestThreadedCampaigns:
    def test_two_threads_share_one_circuit(self, prepared):
        mixed, report = prepared
        source = mixed.analog.component(mixed.analog_source)
        levels = (source.ac, source.dc)
        configs = [
            CampaignConfig(faults_per_element=4, seed=seed) for seed in (3, 4)
        ]
        expected = [
            _outcomes(run_campaign(mixed, report, config=config))
            for config in configs
        ]
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2, timeout=60)

        def work(index):
            try:
                barrier.wait()
                for _ in range(3):
                    results[index] = _outcomes(
                        run_campaign(mixed, report, config=configs[index])
                    )
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == expected
        assert (source.ac, source.dc) == levels


class TestThreadedDeviationMatrix:
    def test_four_threads_share_one_fig4_circuit(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.analog import deviation_matrix
        from repro.circuits import fig4_mixed_circuit

        mixed = fig4_mixed_circuit()
        circuit, parameters = mixed.analog, mixed.parameters
        before = analog_fingerprint(circuit)

        def matrix(_):
            return deviation_matrix(circuit, parameters).to_cache_document()

        serial = matrix(None)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(matrix, range(4)))
        assert all(document == serial for document in threaded)
        assert analog_fingerprint(circuit) == before


class TestThreadedFaultInjection:
    def test_reference_engine_and_activation_share_one_circuit(
        self, prepared
    ):
        mixed, report = prepared
        testable = [test for test in report.analog_tests if test.testable]
        faults = draw_faults(testable, 3, (0.5, 3.0), random.Random(5))
        a2 = next(p for p in mixed.parameters if p.name == "A2")
        choice = choose_stimulus(
            mixed.analog, a2, Bound.LOWER, mixed.adc.threshold(0)
        )
        before = analog_fingerprint(mixed.analog)

        def inject():
            outcomes = ReferenceEngine().run(mixed, testable, faults)
            codes = [
                activate(mixed, parametric(f.element, f.deviation), choice)
                for f in faults
            ]
            return (
                [(o.element, o.deviation, o.detected) for o in outcomes],
                [(r.good_code, r.faulty_code) for r in codes],
            )

        expected = inject()
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2, timeout=60)

        def work(index):
            try:
                barrier.wait()
                results[index] = inject()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(faults) == 24
        assert results == [expected, expected]
        assert analog_fingerprint(mixed.analog) == before
