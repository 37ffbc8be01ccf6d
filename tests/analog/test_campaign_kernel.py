"""The factorized campaign engine's one kernel, on every mixed circuit.

:class:`repro.analog.faultsim.FactorizedEngine` computes every fault gain
through :meth:`repro.spice.FactorizedMna.deviation_batch`: the own-step
gains as one batch per stimulus frequency, and a *tail* gain (a fault
that survived its own steps) as a batch of one.  These tests pin both
halves on every mixed registry circuit against the independent oracles:

* every value the engine reads from the kernel equals a fresh
  :class:`~repro.spice.AcModel` compile of the deviated state to 1e-9;
* the seeded outcomes equal the ``reference`` engine's, also after an
  in-place edit of the digital block.
"""

import pytest

from repro.analog import ReferenceEngine
from repro.api import CampaignConfig, Workbench, default_registry
from repro.core import run_campaign
from repro.core.campaign import draw_population
from repro.digital.gates import GateType
from repro.digital.netlist import Gate
from repro.spice import AcModel, FactorizedMna

#: |kernel − fresh solve| bound, as in the deviation_batch suite.
TOLERANCE = 1e-9

MIXED = [spec.name for spec in default_registry().specs("mixed")]


@pytest.fixture(scope="module")
def session():
    return Workbench().session()


@pytest.fixture(scope="module")
def prepared(session):
    cache = {}

    def prepare(name):
        if name not in cache:
            mixed = session.circuit(name)
            report = session.run(
                mixed, stages=("sensitivity", "stimulus")
            ).report
            cache[name] = mixed, report
        return cache[name]

    return prepare


def _outcome_key(outcomes):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in outcomes
    ]


def _oracle(mixed, report, config):
    return ReferenceEngine().run(mixed, *draw_population(report, config))


class TestKernelAgainstFreshSolve:
    @pytest.mark.parametrize("name", MIXED)
    def test_every_gain_matches_fresh_solve(
        self, prepared, name, monkeypatch
    ):
        mixed, report = prepared(name)
        calls = []
        original = FactorizedMna.deviation_batch

        def spy(self, faults, node):
            voltages = original(self, faults, node)
            calls.append((self.frequency_hz, list(faults), node, voltages))
            return voltages

        monkeypatch.setattr(FactorizedMna, "deviation_batch", spy)
        result = run_campaign(
            mixed,
            report,
            config=CampaignConfig(faults_per_element=3, seed=11),
        )
        monkeypatch.undo()
        assert result.n_injected > 0
        # The pre-batch comes first and computes ``batched_gains``
        # values; every later call is a tail gain, one fault at a time.
        sizes = [len(faults) for _, faults, _, _ in calls]
        batched, prefix = result.diagnostics["batched_gains"], 0
        while sum(sizes[:prefix]) < batched:
            prefix += 1
        assert sum(sizes[:prefix]) == batched
        assert len(sizes) > prefix  # the tail path ran
        assert all(size == 1 for size in sizes[prefix:])
        injected = {(o.element, o.deviation) for o in result.outcomes}
        circuit = mixed.analog
        for frequency, faults, node, voltages in calls:
            assert node == mixed.analog_output
            assert set(faults) <= injected
            for (element, deviation), voltage in zip(faults, voltages):
                fresh = AcModel(
                    circuit, mixed.analog_source, node, {element: deviation}
                )
                assert voltage == pytest.approx(
                    fresh.transfer(frequency), rel=TOLERANCE, abs=TOLERANCE
                )


class TestReferenceParity:
    @pytest.mark.parametrize("name", MIXED)
    def test_outcomes_match_reference(self, prepared, name):
        mixed, report = prepared(name)
        for seed in (3, 8):
            config = CampaignConfig(faults_per_element=2, seed=seed)
            fast = run_campaign(mixed, report, config=config)
            oracle = _oracle(mixed, report, config)
            assert fast.n_injected > 0
            assert _outcome_key(fast.outcomes) == _outcome_key(oracle)

    def test_outcomes_follow_same_count_digital_edit(self, session):
        # The engine builds its compiled digital table from the netlist
        # it is given: after an in-place gate edit (gate, input and
        # output counts unchanged) it must not serve the old logic.
        mixed = session.circuit("fig4")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report
        config = CampaignConfig(faults_per_element=2, seed=3)
        before = run_campaign(mixed, report, config=config)
        old = mixed.digital.gates["Vo2"]
        mixed.digital.gates["Vo2"] = Gate("Vo2", GateType.OR, old.fanins)
        fast = run_campaign(mixed, report, config=config)
        oracle = _oracle(mixed, report, config)
        assert _outcome_key(fast.outcomes) == _outcome_key(oracle)
        assert _outcome_key(fast.outcomes) != _outcome_key(before.outcomes)
