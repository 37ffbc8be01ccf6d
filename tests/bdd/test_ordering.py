"""Tests for the fan-in variable-ordering heuristic."""

from repro.bdd import fanin_order


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
