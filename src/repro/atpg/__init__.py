"""Constrained, backtrack-free BDD ATPG (reproduction of BDD_FTEST + §2.2/2.3)."""

from .ckt2bdd import CircuitBdd, build_gate
from .stuckat import (
    SimulationCheckError,
    StuckAtGenerator,
    TestResult,
    TestStatus,
)
from .composite import (
    CompositePropagation,
    CompositeValue,
    D_VARIABLE,
    propagate_composite,
)
from .constrained import AtpgRun, constraint_builder_from_terms, run_atpg
from .vectors import (
    AnalogStimulus,
    DigitalVector,
    MixedTestStep,
    format_program,
    patterns_from_vectors,
)

__all__ = [
    "CircuitBdd",
    "build_gate",
    "SimulationCheckError",
    "StuckAtGenerator",
    "TestResult",
    "TestStatus",
    "CompositeValue",
    "CompositePropagation",
    "D_VARIABLE",
    "propagate_composite",
    "AtpgRun",
    "run_atpg",
    "constraint_builder_from_terms",
    "AnalogStimulus",
    "DigitalVector",
    "MixedTestStep",
    "format_program",
    "patterns_from_vectors",
]
