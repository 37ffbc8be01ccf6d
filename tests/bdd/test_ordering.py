"""Tests for the fan-in variable-ordering heuristic."""

import pytest

from repro.atpg import CircuitBdd
from repro.bdd import BddManager, fanin_order
from repro.digital import iscas85_like, ripple_adder


FANINS = {
    "g1": ("a", "b"),
    "g2": ("g1", "c"),
    "g3": ("d", "e"),
    "out1": ("g2", "g3"),
    "out2": ("g3", "f"),
}
INPUTS = ["a", "b", "c", "d", "e", "f", "unused"]


class TestFaninOrder:
    def test_is_permutation_of_inputs(self):
        order = fanin_order(["out1", "out2"], FANINS, INPUTS)
        assert sorted(order) == sorted(INPUTS)

    def test_dfs_visits_first_cone_first(self):
        order = fanin_order(["out1"], FANINS, INPUTS)
        # out1's first fan-in chain is g2 -> g1 -> a.
        assert order[0] == "a"
        assert order.index("a") < order.index("d")

    def test_unreached_inputs_appended(self):
        order = fanin_order(["out1", "out2"], FANINS, INPUTS)
        assert order[-1] == "unused"

    def test_no_outputs_yields_declaration(self):
        assert fanin_order([], FANINS, INPUTS) == INPUTS


def _nodes_fanin_and_declared(circuit):
    """Node counts compiled in fan-in order and in declaration order."""
    fanin = CircuitBdd(circuit).total_nodes()
    declared = CircuitBdd(
        circuit, manager=BddManager(list(circuit.inputs))
    ).total_nodes()
    return fanin, declared


@pytest.mark.slow
class TestFaninOrderClaim:
    """The ordering claim of ``benchmarks/bench_bdd_ordering.py``, gated.

    Node counts move whenever the BDD kernel changes how it builds, so
    the claim's two bounds are checked here on every slow run.
    """

    @pytest.mark.parametrize("name", ["c432", "c499"])
    def test_fanin_within_twice_declaration(self, name):
        fanin, declared = _nodes_fanin_and_declared(iscas85_like(name))
        assert fanin <= 2 * declared

    def test_fanin_beats_declaration_on_ripple_adder(self):
        fanin, declared = _nodes_fanin_and_declared(ripple_adder(8))
        assert fanin <= declared
