"""Tests for the assembled mixed-signal circuits."""

import pytest

from repro.bdd import fanin_order
from repro.circuits import (
    TABLE4_CIRCUITS,
    benchmark_digital,
    example3_mixed_circuit,
    fig4_mixed_circuit,
)
from repro.core import MixedSignalCircuit
from repro.conversion import FlashAdc
from repro.digital.library import fig3_circuit
from repro.spice import AnalogCircuit


class TestFig4:
    def test_assembly(self):
        mixed = fig4_mixed_circuit()
        assert mixed.converter_lines == ["l0", "l2"]
        assert mixed.free_digital_inputs == ["l1", "l4"]
        assert mixed.adc.n_comparators == 2

    def test_constraint_is_thermometer(self):
        mixed = fig4_mixed_circuit()
        cbdd = mixed.compiled_digital()
        fc = mixed.constraint_builder()(cbdd.mgr)
        # Thermometer over (l0, l2): 00, 10, 11 allowed; 01 forbidden.
        assert cbdd.mgr.evaluate(fc, {"l0": 0, "l2": 1}) == 0
        assert cbdd.mgr.evaluate(fc, {"l0": 1, "l2": 0}) == 1

    def test_digital_block_compiled_once(self):
        mixed = fig4_mixed_circuit()
        cbdd = mixed.compiled_digital()
        assert cbdd.circuit is mixed.digital
        assert mixed.compiled_digital() is cbdd

    def test_digital_block_compiled_in_fanin_order(self):
        mixed = fig4_mixed_circuit()
        digital = mixed.digital
        expected = fanin_order(
            digital.outputs, digital.fanin_view(), digital.inputs
        )
        assert mixed.compiled_digital().mgr.variable_order == tuple(expected)

    def test_analog_amplitude_linear(self):
        mixed = fig4_mixed_circuit()
        a1 = mixed.analog_amplitude(2500.0, 1.0)
        a2 = mixed.analog_amplitude(2500.0, 2.0)
        assert a2 == pytest.approx(2 * a1)

    def test_converter_code_thermometer(self):
        mixed = fig4_mixed_circuit()
        # At the center frequency with gain 2, a 1.2 V stimulus peaks at
        # 2.4 V: above Vt1 (1.67 V) and below Vt2 (3.33 V).
        code = mixed.converter_code(2500.0, 1.2)
        assert code == (1, 0)

    def test_stats(self):
        stats = fig4_mixed_circuit().stats()
        assert stats["analog_elements"] == 8
        assert stats["comparators"] == 2
        assert stats["free_inputs"] == 2


class TestExample3:
    def test_assembly_per_benchmark(self):
        for name in TABLE4_CIRCUITS[:2]:
            mixed = example3_mixed_circuit(name)
            assert mixed.adc.n_comparators == 15
            assert len(mixed.converter_lines) == 15
            assert set(mixed.converter_lines) <= set(mixed.digital.inputs)

    def test_wiring_deterministic(self):
        a = example3_mixed_circuit("c432")
        b = example3_mixed_circuit("c432")
        assert a.converter_lines == b.converter_lines

    def test_benchmark_digital_fallback(self):
        circuit = benchmark_digital("c880")
        assert len(circuit.inputs) == 60

    def test_bench_dir_miss_falls_back(self, tmp_path):
        circuit = benchmark_digital("c432", bench_dir=tmp_path)
        assert len(circuit.inputs) == 36

    def test_bench_dir_hit_parses_file(self, tmp_path):
        (tmp_path / "c432.bench").write_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
        )
        circuit = benchmark_digital("c432", bench_dir=tmp_path)
        assert circuit.inputs == ["a", "b"]


class TestValidation:
    def test_converter_line_must_be_input(self):
        with pytest.raises(ValueError):
            MixedSignalCircuit(
                name="bad",
                analog=AnalogCircuit("a"),
                analog_source="Vin",
                analog_output="out",
                adc=FlashAdc(n_comparators=2),
                digital=fig3_circuit(),
                converter_lines=["l0", "nope"],
            )

    def test_line_count_must_match_comparators(self):
        with pytest.raises(ValueError):
            MixedSignalCircuit(
                name="bad",
                analog=AnalogCircuit("a"),
                analog_source="Vin",
                analog_output="out",
                adc=FlashAdc(n_comparators=3),
                digital=fig3_circuit(),
                converter_lines=["l0", "l2"],
            )
