"""Linear analog circuit simulator (MNA) — the paper's analog substrate.

Three engine classes serve every analysis, each with a linear-system
backend selector (``"auto"``/``"dense"``/``"sparse"``):
:class:`MnaSolver` for DC and single-frequency AC solves,
:func:`sweep` (and :func:`transfer`) for the transfer function ``H(f)``
over a frequency list, and :class:`TransientSolver` for the
backward-Euler time-domain view.  Every DC and AC system — a
measurement's ``H(f)``, an :class:`MnaSolver` solve, a campaign
:class:`FactorizedMna`, a sweep — is assembled by one compiler,
:class:`AcModel`.
"""

from .components import (
    Capacitor,
    Component,
    CurrentSource,
    FiniteOpAmp,
    IdealOpAmp,
    Inductor,
    Resistor,
    StampContext,
    VCCS,
    VCVS,
    VoltageSource,
)
from .netlist import GROUND, AnalogCircuit, AnalogError
from .backends import (
    BACKEND_NAMES,
    BACKENDS,
    AssembledSystem,
    DenseBackend,
    LinearFactorization,
    LinearSystemBackend,
    SPARSE_AUTO_THRESHOLD,
    SingularSystemError,
    SparseBackend,
    SparsityPattern,
    SystemAssembler,
    resolve_backend,
)
from .mna import FactorizedMna, MnaSolver, Solution
from .acmodel import AcModel
from .ac import FrequencyResponse, log_frequencies, sweep, transfer
from .measure import (
    MeasurementScope,
    bandwidth,
    center_frequency,
    cutoff_high,
    cutoff_low,
    dc_gain,
    gain_at,
    lockstep,
    peak_gain,
)
from .transient import (
    TransientResult,
    TransientSolver,
    TransientState,
    sine,
    step,
)

__all__ = [
    "Component",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "IdealOpAmp",
    "FiniteOpAmp",
    "StampContext",
    "AnalogCircuit",
    "AnalogError",
    "GROUND",
    "MnaSolver",
    "FactorizedMna",
    "Solution",
    "AcModel",
    "MeasurementScope",
    "lockstep",
    "FrequencyResponse",
    "transfer",
    "sweep",
    "log_frequencies",
    "dc_gain",
    "gain_at",
    "peak_gain",
    "center_frequency",
    "cutoff_low",
    "cutoff_high",
    "bandwidth",
    "TransientSolver",
    "TransientResult",
    "TransientState",
    "sine",
    "step",
    # backend layer
    "LinearSystemBackend",
    "LinearFactorization",
    "DenseBackend",
    "SparseBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "SPARSE_AUTO_THRESHOLD",
    "SingularSystemError",
    "AssembledSystem",
    "SystemAssembler",
    "SparsityPattern",
    "resolve_backend",
]
