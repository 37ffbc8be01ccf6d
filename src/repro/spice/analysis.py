"""One typed front door for the simulation layer: ``analyze()``.

Instead of picking among :class:`~repro.spice.AcModel`,
:func:`~repro.spice.ac.sweep` and :class:`~repro.spice.TransientSolver`
(and wiring each to a linear-system backend by hand), callers describe
*what* they want as a request object and let the front door route it:

    from repro.spice import analyze, DcOp, AcSweep, TransientRun, sine

    op = analyze(circuit, DcOp())
    print(op.voltage("out"))

    bode = analyze(
        circuit,
        AcSweep.log(10.0, 1e6, source="Vin", output="out"),
        backend="sparse",
    )
    print(bode.response.magnitudes_db()[:3], bode.diagnostics.backend)

    wave = analyze(
        circuit,
        TransientRun(t_stop=1e-3, dt=1e-6, sources={"Vin": sine(1.0, 2.5e3)}),
    )
    print(wave.waveform("out")[-1])

Every result carries an :class:`AnalysisDiagnostics` describing which
backend actually ran, the system size and how many systems were
factored — the observability hook the campaign and pipeline layers
surface upward.  A DC or AC request compiles the circuit once into an
:class:`~repro.spice.AcModel` and factors its system at each requested
frequency.  A transfer sweep drives its source at unit amplitude inside
that model (``AcModel(circuit, source)``), so analyses only read the
circuit.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .ac import FrequencyResponse, log_frequencies
from .acmodel import AcModel
from .backends import LinearSystemBackend
from .mna import Solution
from .netlist import AnalogCircuit, AnalogError
from .transient import TransientResult, TransientSolver

__all__ = [
    "DcOp",
    "AcSweep",
    "TransientRun",
    "AnalysisDiagnostics",
    "DcResult",
    "AcResult",
    "TransientRunResult",
    "analyze",
]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DcOp:
    """Request: the DC operating point of the circuit as built."""


@dataclass(frozen=True)
class AcSweep:
    """Request: solve the AC system over a frequency grid.

    With ``source``/``output`` set (both or neither), the named voltage
    source is driven at unit amplitude and the result carries the
    sampled transfer function ``H(f) = v(output)`` as a
    :class:`~repro.spice.FrequencyResponse`; otherwise the circuit is
    solved as built and only the per-frequency solutions are returned.
    """

    frequencies_hz: tuple[float, ...]
    source: str | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "frequencies_hz", tuple(self.frequencies_hz)
        )
        if not self.frequencies_hz:
            raise AnalogError("AcSweep needs at least one frequency")
        if any(f < 0 for f in self.frequencies_hz):
            raise AnalogError("AcSweep frequencies must be >= 0")
        if (self.source is None) != (self.output is None):
            raise AnalogError(
                "AcSweep needs both source and output (for a transfer "
                "sweep) or neither (solve the circuit as built)"
            )

    @classmethod
    def log(
        cls,
        start_hz: float,
        stop_hz: float,
        points_per_decade: int = 20,
        source: str | None = None,
        output: str | None = None,
    ) -> "AcSweep":
        """A logarithmic grid sweep (inclusive endpoints)."""
        return cls(
            tuple(log_frequencies(start_hz, stop_hz, points_per_decade)),
            source=source,
            output=output,
        )


@dataclass(frozen=True)
class TransientRun:
    """Request: backward-Euler transient from 0 to ``t_stop``.

    ``sources`` maps source names to time functions overriding their
    static ``dc`` level (see :func:`~repro.spice.sine` /
    :func:`~repro.spice.step`); ``initial`` seeds node voltages.
    """

    t_stop: float
    dt: float
    sources: Mapping[str, Callable[[float], float]] | None = None
    initial: Mapping[str, float] | None = None


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class AnalysisDiagnostics:
    """What actually ran: backend, system size, systems factored."""

    backend: str
    n_nodes: int
    n_unknowns: int
    factorizations: int
    elapsed_s: float

    def as_dict(self) -> dict:
        """Plain-dict form (for artifact/report metadata)."""
        return {
            "backend": self.backend,
            "n_nodes": self.n_nodes,
            "n_unknowns": self.n_unknowns,
            "factorizations": self.factorizations,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class DcResult:
    """The DC operating point plus run diagnostics."""

    solution: Solution
    diagnostics: AnalysisDiagnostics

    def voltage(self, node: str) -> complex:
        """DC voltage of one node."""
        return self.solution.voltage(node)

    def magnitude(self, node: str) -> float:
        """|v(node)| at DC."""
        return self.solution.magnitude(node)

    def branch_current(self, component_name: str) -> complex:
        """DC current through a branch-forming device."""
        return self.solution.branch_current(component_name)


@dataclass
class AcResult:
    """Per-frequency solutions (and optional transfer response)."""

    frequencies_hz: list[float]
    solutions: list[Solution]
    response: FrequencyResponse | None
    diagnostics: AnalysisDiagnostics

    def voltage(self, node: str) -> list[complex]:
        """The node's phasor at every swept frequency."""
        return [solution.voltage(node) for solution in self.solutions]

    def magnitude(self, node: str) -> list[float]:
        """|v(node)| at every swept frequency."""
        return [solution.magnitude(node) for solution in self.solutions]


@dataclass
class TransientRunResult:
    """Sampled waveforms plus run diagnostics."""

    waveforms: TransientResult
    diagnostics: AnalysisDiagnostics

    @property
    def times(self) -> np.ndarray:
        """Sample instants."""
        return self.waveforms.times

    def waveform(self, node: str) -> np.ndarray:
        """The voltage samples of one node."""
        return self.waveforms.waveform(node)

    def amplitude(self, node: str, settle_fraction: float = 0.5) -> float:
        """Peak |v| over the settled tail."""
        return self.waveforms.amplitude(node, settle_fraction)

    def duty_above(
        self, node: str, vref: float, settle_fraction: float = 0.5
    ) -> float:
        """Fraction of settled time above ``vref`` (the paper's Tp)."""
        return self.waveforms.duty_above(node, vref, settle_fraction)


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def _solve_each(
    circuit: AnalogCircuit, source: str | None, frequencies, backend,
    start: float,
) -> tuple[list[Solution], AnalysisDiagnostics]:
    """One compiled model; one factorization and solve per frequency."""
    model = AcModel(circuit, source, backend=backend)
    patterns: dict[bytes, object] = {}
    size = 0
    solutions = []
    for frequency in frequencies:
        system, factorization = model.factorize(frequency, patterns)
        size = system.size
        vector = factorization.solve(system.rhs)
        solutions.append(Solution.of(model, vector, frequency))
    return solutions, AnalysisDiagnostics(
        backend=model.backend.name,
        n_nodes=len(model.node_index),
        n_unknowns=size,
        factorizations=len(solutions),
        elapsed_s=time.perf_counter() - start,
    )


def _analyze_dc(
    circuit: AnalogCircuit, request: DcOp, backend, start: float
) -> DcResult:
    solutions, diagnostics = _solve_each(circuit, None, (0.0,), backend, start)
    return DcResult(solution=solutions[0], diagnostics=diagnostics)


def _analyze_ac(
    circuit: AnalogCircuit, request: AcSweep, backend, start: float
) -> AcResult:
    solutions, diagnostics = _solve_each(
        circuit, request.source, request.frequencies_hz, backend, start
    )
    response = None
    if request.source is not None:
        response = FrequencyResponse(
            list(request.frequencies_hz),
            [solution.voltage(request.output) for solution in solutions],
        )
    return AcResult(
        frequencies_hz=list(request.frequencies_hz),
        solutions=solutions,
        response=response,
        diagnostics=diagnostics,
    )


def _analyze_transient(
    circuit: AnalogCircuit, request: TransientRun, backend, start: float
) -> TransientRunResult:
    solver = TransientSolver(circuit, backend=backend)
    waveforms = solver.run(
        request.t_stop,
        request.dt,
        source_waveforms=request.sources,
        initial=request.initial,
    )
    stats = solver.stats()
    return TransientRunResult(
        waveforms=waveforms,
        diagnostics=AnalysisDiagnostics(
            backend=stats["backend"],
            n_nodes=stats["n_nodes"],
            n_unknowns=stats["size"],
            factorizations=1,
            elapsed_s=time.perf_counter() - start,
        ),
    )


def analyze(
    circuit: AnalogCircuit,
    request: "DcOp | AcSweep | TransientRun",
    backend: str | LinearSystemBackend = "auto",
):
    """Run one analysis request against a circuit and return its result.

    Args:
        circuit: the :class:`~repro.spice.AnalogCircuit` under analysis
            (its current deviation state is honoured).
        request: a :class:`DcOp`, :class:`AcSweep` or
            :class:`TransientRun`.
        backend: linear-system backend — ``"auto"`` (sparse at/above the
            node-count threshold, dense below), ``"dense"``,
            ``"sparse"``, or a
            :class:`~repro.spice.backends.LinearSystemBackend` instance.

    Returns:
        :class:`DcResult`, :class:`AcResult` or
        :class:`TransientRunResult`, matching the request type; each
        carries an :class:`AnalysisDiagnostics` naming the backend that
        actually ran.
    """
    start = time.perf_counter()
    if isinstance(request, DcOp):
        return _analyze_dc(circuit, request, backend, start)
    if isinstance(request, AcSweep):
        return _analyze_ac(circuit, request, backend, start)
    if isinstance(request, TransientRun):
        return _analyze_transient(circuit, request, backend, start)
    raise AnalogError(
        f"unknown analysis request {type(request).__name__!r}; expected "
        "DcOp, AcSweep or TransientRun"
    )
