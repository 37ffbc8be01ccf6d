"""Tests for the combinational netlist container."""

import pytest

from repro.digital import Circuit, GateType, NetlistError


def small_circuit() -> Circuit:
    c = Circuit("small")
    c.add_input("a")
    c.add_input("b")
    c.and_("g1", "a", "b")
    c.not_("g2", "g1")
    c.add_output("g2")
    return c


class TestConstruction:
    def test_builder_methods(self):
        c = small_circuit()
        assert c.inputs == ["a", "b"]
        assert c.outputs == ["g2"]
        assert c.gates["g1"].gate_type is GateType.AND

    def test_duplicate_input_rejected(self):
        c = Circuit("x")
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_input("a")

    def test_double_driver_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.and_("g1", "a", "b")

    def test_driving_an_input_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.not_("a", "b")

    def test_gate_arity_enforced(self):
        c = Circuit("x")
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_gate("g", GateType.NOT, ("a", "a"))
        with pytest.raises(NetlistError):
            c.add_gate("g", GateType.AND, ("a",))

    def test_string_gate_type_accepted(self):
        c = Circuit("x")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", "nand", ("a", "b"))
        assert c.gates["g"].gate_type is GateType.NAND


class TestStructure:
    def test_topological_order_respects_dependencies(self):
        c = small_circuit()
        topo = c.topological_order()
        assert topo.index("g1") < topo.index("g2")

    def test_cycle_detected(self):
        c = Circuit("cyc")
        c.add_input("a")
        c.and_("g1", "a", "g2")
        c.and_("g2", "a", "g1")
        with pytest.raises(NetlistError):
            c.topological_order()

    def test_missing_driver_detected(self):
        c = Circuit("bad")
        c.add_input("a")
        c.and_("g1", "a", "ghost")
        with pytest.raises(NetlistError):
            c.validate()

    def test_unknown_output_detected(self):
        c = small_circuit()
        c.outputs.append("ghost")
        with pytest.raises(NetlistError):
            c.validate()

    def test_fanout_map(self):
        c = small_circuit()
        fanout = c.fanout_map()
        assert fanout["g1"] == [("g2", 0)]
        assert fanout["a"] == [("g1", 0)]
        assert fanout["g2"] == []

    def test_fanin_view(self):
        c = small_circuit()
        assert c.fanin_view()["g1"] == ("a", "b")

    def test_stats(self):
        stats = small_circuit().stats()
        assert stats == {"inputs": 2, "outputs": 1, "gates": 2, "lines": 4}

    def test_signals_inputs_first(self):
        c = small_circuit()
        signals = c.signals()
        assert signals[:2] == ["a", "b"]
        assert set(signals) == {"a", "b", "g1", "g2"}

    def test_topo_cached_between_calls(self, monkeypatch):
        c = small_circuit()
        calls = []
        compute = Circuit._compute_topo

        def counting(self):
            calls.append(self)
            return compute(self)

        monkeypatch.setattr(Circuit, "_compute_topo", counting)
        first = c.topological_order()
        second = c.topological_order()
        assert first == second
        assert len(calls) == 1

    def test_topo_cache_invalidated_on_growth(self):
        c = small_circuit()
        first = c.topological_order()
        c.buf("g3", "g2")
        second = c.topological_order()
        assert "g3" in second and "g3" not in first


class TestCopies:
    def test_copy_is_independent(self):
        c = small_circuit()
        dup = c.copy("dup")
        dup.buf("g3", "g2")
        assert "g3" not in c.gates
        assert dup.name == "dup"

    def test_renamed_prefixes_everything(self):
        c = small_circuit()
        renamed = c.renamed("u_")
        assert renamed.inputs == ["u_a", "u_b"]
        assert renamed.outputs == ["u_g2"]
        assert renamed.gates["u_g1"].fanins == ("u_a", "u_b")
        renamed.validate()

    def test_evaluate_delegates_to_simulator(self):
        c = small_circuit()
        values = c.evaluate({"a": 1, "b": 1})
        assert values["g2"] == 0
