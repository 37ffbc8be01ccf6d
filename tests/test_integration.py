"""Cross-stack integration properties.

The strongest correctness argument in the repository: for seeded random
circuits, the algebraic BDD test generator and the brute-force fault
simulator must agree *exactly* — every produced vector detects its
fault, and every untestability verdict survives exhaustive enumeration.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import AtpgConfig
from repro.atpg import TestStatus, run_atpg
from repro.digital import (
    SynthSpec,
    fault_simulate,
    fault_universe,
    synthesize,
)


class TestAtpgAgainstExhaustiveSimulation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_verdicts_match_brute_force(self, seed):
        spec = SynthSpec(
            f"rand{seed}", n_inputs=6, n_outputs=3, n_gates=18, seed=seed
        )
        circuit = synthesize(spec)
        faults = fault_universe(circuit, include_branches=False)
        run = run_atpg(
            circuit, faults=faults, config=AtpgConfig(compact=False)
        )

        all_patterns = [
            dict(zip(circuit.inputs, bits))
            for bits in itertools.product((0, 1), repeat=6)
        ]
        exhaustive = fault_simulate(circuit, all_patterns, faults)
        for result in run.results:
            brute_detectable = exhaustive[result.fault]
            algebraic_detectable = result.status is TestStatus.DETECTED
            assert algebraic_detectable == brute_detectable, str(result.fault)
            if result.vector is not None:
                hit = fault_simulate(circuit, [result.vector], [result.fault])
                assert hit[result.fault]


class TestConstraintSoundness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_constrained_verdicts_sound(self, seed):
        # Under a thermometer constraint on 3 inputs, a fault is declared
        # untestable iff no *allowed* pattern detects it.
        from repro.conversion import constraint_for_lines, thermometer_terms

        spec = SynthSpec(
            f"randc{seed}", n_inputs=6, n_outputs=2, n_gates=14, seed=seed
        )
        circuit = synthesize(spec)
        lines = circuit.inputs[:3]
        faults = fault_universe(circuit, include_branches=False)
        run = run_atpg(
            circuit,
            faults=faults,
            constraint=constraint_for_lines(lines),
            config=AtpgConfig(compact=False),
        )
        free = [name for name in circuit.inputs if name not in lines]
        allowed_patterns = []
        for term in thermometer_terms(lines):
            for bits in itertools.product((0, 1), repeat=len(free)):
                pattern = dict(term)
                pattern.update(zip(free, bits))
                allowed_patterns.append(pattern)
        exhaustive = fault_simulate(circuit, allowed_patterns, faults)
        for result in run.results:
            algebraic = result.status is TestStatus.DETECTED
            assert algebraic == exhaustive[result.fault], str(result.fault)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        assert hasattr(repro, "MixedSignalTestGenerator")
        assert hasattr(repro, "MixedSignalCircuit")
        assert hasattr(repro, "StateVariableBoard")
        # the unified workbench API
        assert hasattr(repro, "Workbench")
        assert hasattr(repro, "TestSession")
        assert hasattr(repro, "Artifact")
        assert hasattr(repro, "GeneratorConfig")

    def test_all_submodules_importable(self):
        import importlib

        for name in (
            "bdd", "digital", "atpg", "spice", "analog", "conversion",
            "circuits", "core", "experiments", "api",
        ):
            module = importlib.import_module(f"repro.{name}")
            assert hasattr(module, "__all__") or name == "experiments"
