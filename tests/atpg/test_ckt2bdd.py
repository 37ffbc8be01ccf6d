"""Tests for the netlist→BDD compiler."""

import itertools
import random

import pytest

from repro.atpg import CircuitBdd
from repro.bdd import BddManager, fanin_order
from repro.bdd.manager import TRUE
from repro.digital import ripple_adder, simulate
from repro.digital.library import fig3_circuit


class TestCompilation:
    def test_functions_match_simulation_exhaustive(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        for bits in itertools.product((0, 1), repeat=4):
            assignment = dict(zip(circuit.inputs, bits))
            simulated = simulate(circuit, assignment)
            for signal, function in cbdd.functions.items():
                assert (
                    cbdd.mgr.evaluate(function, assignment)
                    == simulated[signal]
                ), signal

    def test_adder_outputs_match_sampled(self):
        circuit = ripple_adder(4)
        cbdd = CircuitBdd(circuit)
        rng = random.Random(3)
        for _ in range(32):
            assignment = {
                name: rng.randint(0, 1) for name in circuit.inputs
            }
            simulated = simulate(circuit, assignment)
            for out, function in cbdd.output_functions().items():
                assert cbdd.mgr.evaluate(function, assignment) == simulated[out]

    def test_default_order_is_fanin(self):
        circuit = ripple_adder(4)
        expected = fanin_order(
            circuit.outputs, circuit.fanin_view(), circuit.inputs
        )
        assert CircuitBdd(circuit).mgr.variable_order == tuple(expected)

    def test_manager_keeps_its_order(self):
        # The declaration order is reached through a manager built in it,
        # and the compiled functions do not depend on the order.
        circuit = ripple_adder(4)
        cbdd = CircuitBdd(circuit, manager=BddManager(list(circuit.inputs)))
        assert cbdd.mgr.variable_order == tuple(circuit.inputs)
        rng = random.Random(5)
        for _ in range(16):
            assignment = {
                name: rng.randint(0, 1) for name in circuit.inputs
            }
            simulated = simulate(circuit, assignment)
            for out, function in cbdd.output_functions().items():
                assert cbdd.mgr.evaluate(function, assignment) == simulated[out]

    def test_missing_inputs_appended_in_fanin_order(self):
        circuit = ripple_adder(2)
        first = circuit.inputs[-1]
        cbdd = CircuitBdd(circuit, manager=BddManager([first]))
        rest = [
            name
            for name in fanin_order(
                circuit.outputs, circuit.fanin_view(), circuit.inputs
            )
            if name != first
        ]
        assert cbdd.mgr.variable_order == (first, *rest)

    def test_ordering_keyword_is_retired(self):
        with pytest.raises(TypeError, match="ordering"):
            CircuitBdd(fig3_circuit(), ordering="declaration")

    def test_shared_manager(self):
        from repro.bdd import BddManager

        mgr = BddManager()
        cbdd = CircuitBdd(fig3_circuit(), manager=mgr)
        assert cbdd.mgr is mgr
        assert mgr.has_variable("l0")


class TestFanoutCone:
    def test_cone_of_input(self):
        cbdd = CircuitBdd(fig3_circuit())
        cone = cbdd.fanout_cone("l1")
        assert cone == {"l5", "l6", "Vo1", "Vo2"}

    def test_cone_of_output_is_empty(self):
        cbdd = CircuitBdd(fig3_circuit())
        assert cbdd.fanout_cone("Vo1") == set()


class TestCutFunctions:
    def test_substituting_line_function_recovers_output(self):
        # Composing the line's own function back into the cut variable
        # must reproduce the original output BDD.
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        for line in ("l3", "l5", "l6", "l1"):
            w, outputs = cbdd.functions_with_cut(line)
            w_name = cbdd.mgr.top_var(w)
            for out, function in outputs.items():
                recomposed = cbdd.mgr.compose(
                    function, w_name, cbdd.functions[line]
                )
                assert recomposed == cbdd.functions[out], (line, out)

    def test_cut_on_output_line(self):
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        w, outputs = cbdd.functions_with_cut("Vo1")
        assert outputs["Vo1"] == w

    def test_branch_cut_affects_single_path(self):
        # Cutting the l1->l6 branch leaves Vo1 (through l5) intact.
        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        _w, outputs = cbdd.functions_with_cut("l1", pin_site=("l6", 0))
        assert outputs["Vo1"] == cbdd.functions["Vo1"]
        assert outputs["Vo2"] != cbdd.functions["Vo2"]

    def test_cut_variable_is_last_in_order(self):
        cbdd = CircuitBdd(fig3_circuit())
        cbdd.functions_with_cut("l3")
        order = cbdd.mgr.variable_order
        assert order[-1] == ("cut", "l3", None)

    def test_substituted_outputs_constant_pinning(self):
        from repro.bdd.manager import FALSE, TRUE

        circuit = fig3_circuit()
        cbdd = CircuitBdd(circuit)
        outputs = cbdd.substituted_outputs({"l4": TRUE})
        assert outputs["Vo1"] == TRUE  # Vo1 = l5 + l4

    def test_total_nodes_positive(self):
        cbdd = CircuitBdd(fig3_circuit())
        assert cbdd.total_nodes() > 4


class TestChainRuleAccessors:
    def test_sole_successor(self):
        cbdd = CircuitBdd(fig3_circuit())
        assert cbdd.sole_successor("l3") == ("l5", 0)  # l3 feeds l5 only
        assert cbdd.sole_successor("l4") == ("Vo1", 1)
        assert cbdd.sole_successor("l1") is None  # fan-out stem
        assert cbdd.sole_successor("Vo1") is None  # primary output
        # A fan-out branch is its own sole successor.
        assert cbdd.sole_successor("l1", ("l6", 0)) == ("l6", 0)

    def test_local_difference(self):
        cbdd = CircuitBdd(fig3_circuit())
        mgr = cbdd.mgr
        # l5 = AND(l3, l1): l3 is observed at l5 exactly when l1 = 1.
        assert cbdd.local_difference("l5", 0) == mgr.var("l1")
        # l6 = XOR(l1, l2): every input is always observed.
        assert cbdd.local_difference("l6", 1) == TRUE
        # l3 = NOR(l0, l2): l0 is observed when l2 = 0.
        assert cbdd.local_difference("l3", 0) == mgr.nvar("l2")
