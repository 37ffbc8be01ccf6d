"""Tests for the BDD stuck-at test generator.

The load-bearing property: every vector the generator emits must actually
detect its fault under fault simulation — the algebra and the simulator
must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import CircuitBdd, StuckAtGenerator, TestStatus
from repro.bdd.manager import FALSE, TRUE
from repro.bdd.ops import minimize_path
from repro.conversion import constraint_for_lines, random_line_assignment
from repro.digital import (
    Circuit,
    branch_fault,
    collapse_faults,
    fault_simulate,
    fault_universe,
    ripple_adder,
    stem_fault,
)
from repro.digital.library import fig3_circuit
from repro.digital.synth import SynthSpec, synthesize


class TestAgainstFaultSimulation:
    @pytest.mark.parametrize(
        "circuit_factory", [fig3_circuit, lambda: ripple_adder(3)]
    )
    def test_vectors_detect_their_faults(self, circuit_factory):
        circuit = circuit_factory()
        cbdd = CircuitBdd(circuit)
        generator = StuckAtGenerator(cbdd)
        faults = collapse_faults(circuit, fault_universe(circuit))
        for fault in faults:
            result = generator.generate(fault)
            assert result.status is TestStatus.DETECTED
            detected = fault_simulate(circuit, [result.vector], [fault])
            assert detected[fault], f"{fault} not detected by {result.vector}"

    def test_observing_outputs_reported(self):
        circuit = fig3_circuit()
        generator = StuckAtGenerator(CircuitBdd(circuit))
        result = generator.generate(stem_fault("l4", 0))
        assert result.observing_outputs == ("Vo1",)


class TestUntestable:
    def test_redundant_fault_proven_untestable(self):
        # g = a AND (a OR b): the (a OR b) path is redundant for b when
        # a = 0; specifically "or1 s-a-1" is undetectable.
        c = Circuit("redundant")
        c.add_input("a")
        c.add_input("b")
        c.or_("or1", "a", "b")
        c.and_("g", "a", "or1")
        c.add_output("g")
        generator = StuckAtGenerator(CircuitBdd(c))
        result = generator.generate(stem_fault("or1", 1))
        assert result.status is TestStatus.UNTESTABLE

    def test_constant_line_activation_impossible(self):
        c = Circuit("const")
        c.add_input("a")
        c.add_gate("zero", "CONST0", ())
        c.or_("g", "a", "zero")
        c.add_output("g")
        generator = StuckAtGenerator(CircuitBdd(c))
        result = generator.generate(stem_fault("zero", 0))
        assert result.status is TestStatus.UNTESTABLE


class TestConstraints:
    def test_constraint_kills_fault(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        fc = cbdd.mgr.or_(cbdd.mgr.var("l0"), cbdd.mgr.var("l2"))
        generator = StuckAtGenerator(cbdd, constraint=fc)
        result = generator.generate(stem_fault("l3", 0))
        assert result.status is TestStatus.CONSTRAINED_UNTESTABLE

    def test_vectors_satisfy_constraint(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        fc = cbdd.mgr.or_(cbdd.mgr.var("l0"), cbdd.mgr.var("l2"))
        generator = StuckAtGenerator(cbdd, constraint=fc)
        for fault in fault_universe(circuit, include_branches=False):
            result = generator.generate(fault)
            if result.status is TestStatus.DETECTED:
                assert cbdd.mgr.evaluate(fc, result.vector) == 1

    def test_false_constraint_kills_everything(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        generator = StuckAtGenerator(cbdd, constraint=FALSE)
        result = generator.generate(stem_fault("l4", 0))
        assert result.status is TestStatus.CONSTRAINED_UNTESTABLE


class TestAlgebra:
    def test_activation_function_polarity(self):
        circuit = fig3_circuit()
        generator = StuckAtGenerator(CircuitBdd(circuit))
        act0 = generator.activation_function(stem_fault("l1", 0))
        act1 = generator.activation_function(stem_fault("l1", 1))
        mgr = generator.mgr
        assert act0 == mgr.var("l1")
        assert act1 == mgr.nvar("l1")

    def test_test_set_size_counted(self):
        circuit = fig3_circuit()
        generator = StuckAtGenerator(
            CircuitBdd(circuit), count_vectors=True
        )
        result = generator.generate(stem_fault("l4", 0))
        assert result.test_set_size is not None
        assert result.test_set_size > 0

    def test_propagation_cache_hit(self):
        # The memo lives on the compile: both polarities of a site, under
        # any constraint, read the same entry.
        cbdd = CircuitBdd(fig3_circuit())
        free = StuckAtGenerator(cbdd)
        constrained = StuckAtGenerator(cbdd, constraint=cbdd.mgr.var("l0"))
        first = free.propagation_function(stem_fault("l3", 0))
        second = constrained.propagation_function(stem_fault("l3", 1))
        assert first == second
        assert cbdd.propagation("l3") is cbdd.propagation("l3")  # cached

    def test_test_set_unconstrained_flag(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        fc = cbdd.mgr.var("l0")
        generator = StuckAtGenerator(cbdd, constraint=fc)
        fault = stem_fault("l4", 0)
        constrained = generator.test_set(fault, constrained=True)
        free = generator.test_set(fault, constrained=False)
        mgr = cbdd.mgr
        assert constrained == mgr.and_(free, fc)


class TestSimulationCheck:
    def test_replay_passes_on_sound_generator(self):
        circuit = fig3_circuit()
        generator = StuckAtGenerator(
            CircuitBdd(circuit), simulation_check=True
        )
        faults = collapse_faults(circuit, fault_universe(circuit))
        for fault in faults:
            result = generator.generate(fault)
            assert result.status is TestStatus.DETECTED
        assert generator.simulation_checks == len(faults)

    def test_run_atpg_surfaces_diagnostics(self):
        from repro.atpg import run_atpg
        from repro.api import AtpgConfig

        circuit = fig3_circuit()
        run = run_atpg(
            circuit, config=AtpgConfig(simulation_check=True)
        )
        assert run.diagnostics is not None
        assert run.diagnostics["digital_engine"] == "compiled"
        assert run.diagnostics["simulation_checks"] == run.n_detected
        assert run.diagnostics["compaction"]["engine"] == "compiled"
        assert run.diagnostics["bdd"]["ite_misses"] > 0

    def test_reference_engine_produces_identical_run(self):
        from repro.atpg import run_atpg
        from repro.api import AtpgConfig
        from repro.digital.simulate import compact_vectors

        circuit = fig3_circuit()
        compiled = run_atpg(circuit)
        raw = run_atpg(circuit, config=AtpgConfig(compact=False))
        detected = [
            r.fault for r in raw.results if r.status is TestStatus.DETECTED
        ]
        assert compiled.vectors == compact_vectors(
            circuit, raw.vectors, detected, engine="reference"
        )
        assert compiled.n_untestable == raw.n_untestable


def _fault_sites(circuit):
    """Every stem and fan-out branch of the circuit, as ``(line, pin_site)``."""
    sites = [(line, None) for line in circuit.inputs + circuit.topological_order()]
    fanout = circuit.fanout_map()
    for line, pins in fanout.items():
        if len(pins) > 1:
            sites.extend((line, pin_site) for pin_site in pins)
    return sites


def _assert_splices_equal_cut_differences(circuit):
    cbdd = CircuitBdd(circuit)
    mgr = cbdd.mgr
    generator = StuckAtGenerator(cbdd)
    sites = _fault_sites(circuit)
    assert any(pin_site is not None for _line, pin_site in sites)
    for line, pin_site in sites:
        fault = (
            stem_fault(line, 0)
            if pin_site is None
            else branch_fault(line, pin_site[0], pin_site[1], 0)
        )
        union, per_output = generator.propagation_function(fault)
        w, outputs = cbdd.functions_with_cut(line, pin_site)
        w_name = mgr.top_var(w)
        expected = {
            out: mgr.boolean_difference(function, w_name)
            for out, function in outputs.items()
        }
        # Canonical BDDs on one manager: equal functions are equal nodes.
        assert per_output == expected, (line, pin_site)
        assert union == mgr.or_(*expected.values()), (line, pin_site)


class TestSplicedPropagation:
    """Constant splices give the paper's cut-variable Boolean differences."""

    def test_fig3_stems_and_branches(self):
        _assert_splices_equal_cut_differences(fig3_circuit())

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_netlists(self, seed):
        spec = SynthSpec(
            f"prop{seed}",
            n_inputs=7,
            n_outputs=3,
            n_gates=24,
            seed=seed,
            xor_fraction=0.2,
        )
        _assert_splices_equal_cut_differences(synthesize(spec))

    def test_table4_circuit_vectors_confirmed_by_fault_simulation(self):
        from repro.api import AtpgConfig
        from repro.atpg import run_atpg
        from repro.circuits import benchmark_digital

        run = run_atpg(
            benchmark_digital("c432"),
            config=AtpgConfig(simulation_check=True, compact=False),
        )
        assert run.n_detected > 0
        # Every DETECTED vector was replayed; a miss would have raised.
        assert run.diagnostics["simulation_checks"] == run.n_detected


def _oracle_differences(cbdd, fault):
    """``{o: ∂PO_o/∂l}`` from ``boolean_difference`` over a cut variable."""
    mgr = cbdd.mgr
    pin_site = None if fault.is_stem else (fault.gate, fault.pin)
    w, outputs = cbdd.functions_with_cut(fault.line, pin_site)
    w_name = mgr.top_var(w)
    return {
        out: mgr.boolean_difference(function, w_name)
        for out, function in outputs.items()
    }


def _oracle_result(generator, fault, diffs):
    """What ``generate`` must return for ``fault``, given its oracle ``diffs``.

    ``S = f_l^(v̄) · Σ_o ∂PO_o/∂l · Fc``, and the vector is the
    zero-preferring path of ``S`` completed with zeros.
    """
    mgr = generator.mgr
    unconstrained = mgr.and_(
        generator.activation_function(fault), mgr.or_(*diffs.values())
    )
    if unconstrained == FALSE:
        return TestStatus.UNTESTABLE, None, ()
    s = mgr.and_(unconstrained, generator.constraint)
    if s == FALSE:
        return TestStatus.CONSTRAINED_UNTESTABLE, None, ()
    vector = generator._complete(minimize_path(mgr, s))
    observing = tuple(
        out for out, diff in diffs.items() if mgr.evaluate(diff, vector)
    )
    return TestStatus.DETECTED, vector, observing


def _assert_generate_matches_oracle(circuit, constraint_lines):
    """Check every collapsed fault with ``Fc = TRUE`` and with a
    thermometer constraint on ``constraint_lines``; return the statuses
    seen per case."""
    cbdd = CircuitBdd(circuit)
    faults = collapse_faults(circuit, fault_universe(circuit))
    oracle: dict = {}
    statuses = []
    for fc in (TRUE, constraint_for_lines(constraint_lines)(cbdd.mgr)):
        generator = StuckAtGenerator(cbdd, constraint=fc)
        seen = set()
        for fault in faults:
            site = (fault.line, fault.gate, fault.pin)
            if site not in oracle:
                oracle[site] = _oracle_differences(cbdd, fault)
            result = generator.generate(fault)
            expected = _oracle_result(generator, fault, oracle[site])
            assert (
                result.status, result.vector, result.observing_outputs
            ) == expected, str(fault)
            seen.add(result.status)
        statuses.append(seen)
    return statuses


class TestGenerateMatchesCutVariableOracle:
    """``generate`` over every collapsed fault equals the cut-variable oracle."""

    def test_fig3(self):
        _alone, constrained = _assert_generate_matches_oracle(
            fig3_circuit(), ["l2", "l0"]
        )
        assert TestStatus.CONSTRAINED_UNTESTABLE in constrained

    def test_c432(self):
        from repro.circuits import benchmark_digital

        circuit = benchmark_digital("c432")
        lines = random_line_assignment(circuit.inputs, 15, seed=432)
        alone, constrained = _assert_generate_matches_oracle(circuit, lines)
        assert TestStatus.DETECTED in alone
        assert TestStatus.CONSTRAINED_UNTESTABLE in constrained

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_netlists(self, seed):
        spec = SynthSpec(
            f"diff{seed}",
            n_inputs=7,
            n_outputs=3,
            n_gates=24,
            seed=seed,
            xor_fraction=0.2,
        )
        circuit = synthesize(spec)
        lines = random_line_assignment(circuit.inputs, 3, seed)
        _assert_generate_matches_oracle(circuit, lines)

    def test_c499_vectors_confirmed_by_fault_simulation(self):
        from repro.api import AtpgConfig
        from repro.atpg import run_atpg
        from repro.circuits import benchmark_digital

        circuit = benchmark_digital("c499")
        lines = random_line_assignment(circuit.inputs, 15, seed=499)
        for constraint in (None, constraint_for_lines(lines)):
            run = run_atpg(
                circuit,
                constraint=constraint,
                config=AtpgConfig(simulation_check=True, compact=False),
            )
            assert run.n_detected > 0
            # Every DETECTED vector was replayed; a miss would have raised.
            assert run.diagnostics["simulation_checks"] == run.n_detected


class TestChainRule:
    """Only fan-out stems and primary outputs rebuild their fault cones."""

    def test_cones_are_rebuilt_only_at_stems_without_a_sole_successor(self):
        from repro.circuits import benchmark_digital

        circuit = benchmark_digital("c432")
        cbdd = CircuitBdd(circuit)
        rebuilt = []
        rebuild = cbdd.functions_with_line

        def spy(line, pin_site, node):
            rebuilt.append((line, pin_site))
            return rebuild(line, pin_site, node)

        cbdd.functions_with_line = spy
        generator = StuckAtGenerator(cbdd)
        faults = collapse_faults(circuit, fault_universe(circuit))
        for fault in faults:
            generator.generate(fault)
        sites = set(rebuilt)
        assert len(rebuilt) == 2 * len(sites)  # once per site, both constants
        assert all(
            pin_site is None and cbdd.sole_successor(line) is None
            for line, pin_site in sites
        )
        assert len(sites) < len({(f.line, f.gate, f.pin) for f in faults}) / 3

    def test_long_single_fanout_chain(self):
        """The chain walk is iterative: depth is not bounded by recursion."""
        c = Circuit("chain")
        c.add_input("a")
        c.add_input("b")
        previous = "a"
        for i in range(3000):
            c.add_gate(f"n{i}", "NOT", (previous,))
            previous = f"n{i}"
        c.and_("out", previous, "b")
        c.add_output("out")
        generator = StuckAtGenerator(CircuitBdd(c))
        result = generator.generate(stem_fault("a", 0))
        assert result.status is TestStatus.DETECTED
        assert result.vector == {"a": 1, "b": 1}
        assert result.observing_outputs == ("out",)
