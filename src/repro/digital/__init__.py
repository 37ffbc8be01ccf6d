"""Gate-level digital substrate: netlists, faults, simulation, benchmarks."""

from .gates import GATE_ARITY, GateType, evaluate_gate
from .netlist import Circuit, Gate, NetlistError
from .faults import (
    Fault,
    branch_fault,
    checkpoint_faults,
    collapse_faults,
    fault_universe,
    stem_fault,
)
from .simulate import (
    DIGITAL_ENGINES,
    compact_vectors,
    coverage,
    fault_simulate,
    simulate,
    simulate_patterns,
    simulate_with_fault,
)
from .compiled import (
    CompiledCircuit,
    CompiledFaultSimulator,
    FaultSimDiagnostics,
)
from .iscas import parse_bench, parse_bench_file, write_bench
from .synth import ISCAS85_SPECS, SynthSpec, iscas85_like, synthesize
from .library import (
    alu_slice,
    fig3_circuit,
    magnitude_comparator,
    mux_tree,
    parity_tree,
    ripple_adder,
)

__all__ = [
    "GateType",
    "GATE_ARITY",
    "evaluate_gate",
    "Circuit",
    "Gate",
    "NetlistError",
    "Fault",
    "stem_fault",
    "branch_fault",
    "fault_universe",
    "collapse_faults",
    "checkpoint_faults",
    "simulate",
    "simulate_patterns",
    "simulate_with_fault",
    "fault_simulate",
    "compact_vectors",
    "coverage",
    "DIGITAL_ENGINES",
    "CompiledCircuit",
    "CompiledFaultSimulator",
    "FaultSimDiagnostics",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "SynthSpec",
    "ISCAS85_SPECS",
    "synthesize",
    "iscas85_like",
    "alu_slice",
    "fig3_circuit",
    "magnitude_comparator",
    "mux_tree",
    "parity_tree",
    "ripple_adder",
]
