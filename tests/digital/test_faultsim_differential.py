"""Differential suite: the compiled digital engine against the reference.

The compiled, cone-limited, multi-word fault simulator
(:mod:`repro.digital.compiled`) must be *indistinguishable* from the
whole-circuit reference interpreter behind every public signature:
identical detection maps, identical compacted vector lists, identical
coverage — on every registry digital circuit and on seeded random
synthesized netlists.

The small circuits run in tier-1; the larger ISCAS-class stand-ins are
marked ``slow`` and run in the differential CI job.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import default_registry
from repro.digital import (
    CompiledCircuit,
    compact_vectors,
    coverage,
    fault_simulate,
    fault_universe,
    simulate,
    stem_fault,
)
from repro.digital.compiled import CompiledFaultSimulator, pack_patterns
from repro.digital.faults import Fault, collapse_faults
from repro.digital.gates import GateType
from repro.digital.netlist import Gate
from repro.digital.synth import SynthSpec, synthesize

#: every digital circuit in the registry; the big ones are slow-marked.
_FAST = ("fig3", "c432")
_REGISTRY_DIGITAL = [
    name
    if name in _FAST
    else pytest.param(name, marks=pytest.mark.slow)
    for name in sorted(default_registry().names("digital"))
]


def _build(name):
    return default_registry().build(name)


def _patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {name: rng.randint(0, 1) for name in circuit.inputs}
        for _ in range(count)
    ]


class TestEngineNames:
    def test_unknown_engine_rejected(self):
        circuit = _build("fig3")
        with pytest.raises(ValueError, match="unknown digital"):
            fault_simulate(circuit, [], [], engine="quantum")


@pytest.mark.parametrize("name", _REGISTRY_DIGITAL)
class TestRegistryDifferential:
    """Compiled == reference on every registry digital circuit."""

    def test_detection_maps_identical(self, name):
        circuit = _build(name)
        faults = fault_universe(circuit)
        # 100 patterns spans two 64-bit words — the multi-word path.
        patterns = _patterns(circuit, 100, seed=11)
        compiled = fault_simulate(circuit, patterns, faults, engine="compiled")
        reference = fault_simulate(
            circuit, patterns, faults, engine="reference"
        )
        assert compiled == reference

    def test_compacted_vectors_identical(self, name):
        circuit = _build(name)
        faults = collapse_faults(circuit, fault_universe(circuit))
        vectors = _patterns(circuit, 48, seed=23)
        compiled = compact_vectors(circuit, vectors, faults, engine="compiled")
        reference = compact_vectors(
            circuit, vectors, faults, engine="reference"
        )
        assert compiled == reference

    def test_coverage_identical(self, name):
        circuit = _build(name)
        faults = collapse_faults(circuit, fault_universe(circuit))
        patterns = _patterns(circuit, 80, seed=5)
        assert coverage(
            circuit, patterns, faults, engine="compiled"
        ) == coverage(circuit, patterns, faults, engine="reference")

    def test_single_pattern_outputs_match_interpreter(self, name):
        circuit = _build(name)
        compiled = CompiledCircuit(circuit)
        rng = random.Random(37)
        for _ in range(8):
            assignment = {n: rng.randint(0, 1) for n in circuit.inputs}
            good = simulate(circuit, assignment)
            assert compiled.evaluate_outputs(assignment) == tuple(
                good[o] for o in circuit.outputs
            )


class TestPropertyRandomNetlists:
    """Seeded random synthesized netlists: engines stay identical."""

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=15, deadline=None)
    def test_detection_and_compaction_identical(self, seed):
        spec = SynthSpec(
            f"rand{seed}",
            n_inputs=10,
            n_outputs=4,
            n_gates=48,
            seed=seed,
            xor_fraction=0.15,
        )
        circuit = synthesize(spec)
        faults = fault_universe(circuit)
        # 70 patterns: exercises the partial final word of a 2-word batch.
        patterns = _patterns(circuit, 70, seed=seed ^ 0xBEEF)
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")
        vectors = patterns[:30]
        collapsed = collapse_faults(circuit, faults)
        assert compact_vectors(
            circuit, vectors, collapsed, engine="compiled"
        ) == compact_vectors(circuit, vectors, collapsed, engine="reference")

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=10, deadline=None)
    def test_word_size_invariance(self, seed):
        """Batch size never changes what is detected."""
        spec = SynthSpec(
            f"randw{seed}", n_inputs=8, n_outputs=3, n_gates=32, seed=seed
        )
        circuit = synthesize(spec)
        faults = fault_universe(circuit, include_branches=False)
        patterns = _patterns(circuit, 50, seed=seed + 1)
        baseline = fault_simulate(circuit, patterns, faults, word_size=256)
        for word_size in (1, 7, 64, 65):
            assert (
                fault_simulate(circuit, patterns, faults, word_size=word_size)
                == baseline
            )


class TestCompiledEdgeCases:
    def test_fault_on_unknown_line_detects_nothing(self):
        circuit = _build("fig3")
        patterns = _patterns(circuit, 16, seed=1)
        ghost = stem_fault("no-such-line", 1)
        assert fault_simulate(circuit, patterns, [ghost], engine="compiled") == (
            fault_simulate(circuit, patterns, [ghost], engine="reference")
        )

    def test_branch_fault_with_out_of_range_pin(self):
        circuit = _build("fig3")
        patterns = _patterns(circuit, 16, seed=2)
        gate = next(iter(circuit.gates))
        bogus = Fault("l1", 1, gate=gate, pin=99)
        assert fault_simulate(circuit, patterns, [bogus], engine="compiled") == (
            fault_simulate(circuit, patterns, [bogus], engine="reference")
        )

    def test_empty_patterns_detect_nothing(self):
        circuit = _build("fig3")
        faults = fault_universe(circuit, include_branches=False)
        detected = fault_simulate(circuit, [], faults, engine="compiled")
        assert not any(detected.values())

    def test_pack_patterns_round_trip(self):
        circuit = _build("fig3")
        patterns = _patterns(circuit, 70, seed=9)
        words, mask = pack_patterns(circuit.inputs, patterns)
        assert words.shape == (len(circuit.inputs), 2)
        assert int(mask[0]) == (1 << 64) - 1
        assert int(mask[1]) == (1 << 6) - 1
        for i, name in enumerate(circuit.inputs):
            packed = int(words[i, 0]) | (int(words[i, 1]) << 64)
            expected = sum(
                (patterns[b][name] & 1) << b for b in range(len(patterns))
            )
            assert packed == expected

    def test_diagnostics_surface_cone_activity(self):
        circuit = _build("c432")
        faults = fault_universe(circuit)[:50]
        patterns = _patterns(circuit, 96, seed=4)
        simulator = CompiledFaultSimulator(circuit)
        simulator.fault_simulate(patterns, faults)
        diag = simulator.last_diagnostics
        assert diag is not None and diag.engine == "compiled"
        assert diag.n_batches == 1
        assert diag.cone_gates_total > 0
        # Cone limiting means far fewer evaluations than |faults|·|gates|.
        assert diag.gates_evaluated < len(faults) * diag.n_gates
        document = diag.as_dict()
        assert document["engine"] == "compiled"
        assert document["word_size"] == 256

    def test_compiled_form_follows_growth(self):
        circuit = _build("fig3")
        grown = circuit.copy()
        grown.not_("extra", circuit.inputs[0])
        grown.add_output("extra")
        faults = fault_universe(grown)
        patterns = _patterns(grown, 16, seed=8)
        assert fault_simulate(
            grown, patterns, faults, engine="compiled"
        ) == fault_simulate(grown, patterns, faults, engine="reference")

    def test_compiled_form_follows_interface_change(self):
        # The compiled form bakes in the output list: detection through
        # a newly marked output must match the reference interpreter.
        circuit = _build("fig3")
        patterns = _patterns(circuit, 16, seed=6)
        fault_simulate(circuit, patterns, [], engine="compiled")
        gate = circuit.topological_order()[0]
        circuit.add_output(gate)
        faults = [stem_fault(gate, 0), stem_fault(gate, 1)]
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")

    def test_compiled_form_follows_same_count_gate_edit(self):
        # Replacing a gate in place keeps the gate, input and output
        # counts, so only a compiled form built from the netlist's
        # content sees the new logic.
        circuit = _build("fig3")
        faults = fault_universe(circuit)
        patterns = _patterns(circuit, 16, seed=9)
        fault_simulate(circuit, patterns, faults, engine="compiled")
        old = circuit.gates["l3"]
        circuit.gates["l3"] = Gate("l3", GateType.AND, old.fanins)
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")

    @pytest.mark.parametrize("name", _FAST)
    def test_compiled_forms_follow_gate_type_swaps(self, name):
        # Swap the type of every fifth gate in place (the counts stay):
        # every compiled consumer — detection, compaction and plain
        # evaluation — must see the edited logic.
        circuit = _build(name)
        faults = collapse_faults(circuit, fault_universe(circuit))
        patterns = _patterns(circuit, 64, seed=12)
        fault_simulate(circuit, patterns, faults, engine="compiled")
        before = [
            tuple(simulate(circuit, p)[o] for o in circuit.outputs)
            for p in patterns
        ]
        assert _swap_gate_types(circuit, every=5) > 0
        after = [
            tuple(simulate(circuit, p)[o] for o in circuit.outputs)
            for p in patterns
        ]
        assert after != before
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")
        vectors = patterns[:32]
        assert compact_vectors(
            circuit, vectors, faults, engine="compiled"
        ) == compact_vectors(circuit, vectors, faults, engine="reference")
        compiled = CompiledCircuit(circuit)
        assert [compiled.evaluate_outputs(p) for p in patterns] == after

    def test_compiled_form_follows_fanin_rewire(self):
        # Rewire one fan-in of a gate to another primary input: gate,
        # fan-in, input and output counts are all unchanged.
        circuit = _build("fig3")
        faults = fault_universe(circuit)
        patterns = _patterns(circuit, 16, seed=13)
        fault_simulate(circuit, patterns, faults, engine="compiled")
        old = circuit.gates["l3"]
        spare = next(i for i in circuit.inputs if i not in old.fanins)
        circuit.gates["l3"] = Gate(
            "l3", old.gate_type, (spare,) + old.fanins[1:]
        )
        faults = fault_universe(circuit)
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")

    def test_compiled_form_follows_output_replacement(self):
        # Observe an internal line in place of a primary output: the
        # output count is unchanged, the observed logic is not.
        circuit = _build("fig3")
        faults = fault_universe(circuit)
        patterns = _patterns(circuit, 16, seed=14)
        fault_simulate(circuit, patterns, faults, engine="compiled")
        internal = next(
            g for g in circuit.topological_order()
            if g not in circuit.outputs
        )
        circuit.outputs[0] = internal
        assert fault_simulate(
            circuit, patterns, faults, engine="compiled"
        ) == fault_simulate(circuit, patterns, faults, engine="reference")

    def test_compiled_form_is_a_snapshot_of_its_build(self):
        # A compiled table keeps no reference to its circuit: editing
        # the netlist afterwards leaves the table's logic as built.
        circuit = _build("fig3")
        patterns = _patterns(circuit, 16, seed=15)
        original = circuit.copy()
        compiled = CompiledCircuit(circuit)
        assert _swap_gate_types(circuit, every=1) > 0
        for pattern in patterns:
            good = simulate(original, pattern)
            assert compiled.evaluate_outputs(pattern) == tuple(
                good[o] for o in original.outputs
            )


#: non-complementary type swaps: each changes which faults a pattern
#: detects, not only the polarity of a line.
_TYPE_SWAPS = {
    GateType.AND: GateType.OR,
    GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR,
    GateType.NOR: GateType.NAND,
    GateType.XOR: GateType.AND,
    GateType.XNOR: GateType.OR,
}


def _swap_gate_types(circuit, every):
    """Swap the type of every ``every``-th swappable gate in place."""
    swappable = [
        gate for gate in circuit.gates.values()
        if gate.gate_type in _TYPE_SWAPS
    ]
    for gate in swappable[::every]:
        circuit.gates[gate.output] = Gate(
            gate.output, _TYPE_SWAPS[gate.gate_type], gate.fanins
        )
    return len(swappable[::every])
