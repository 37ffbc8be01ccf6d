"""Transient (time-domain) simulation via backward-Euler companion models.

The paper's section 2.3 reasons about comparator outputs *over a period*:
with the test sinusoid applied, the faulty circuit's output crosses the
comparator threshold for only part of the cycle ("a period of time Tp"),
producing the composite logic value.  The AC (phasor) analysis used by
the main flow predicts the crossing from the output amplitude; this
module provides the time-domain view that validates that prediction and
lets users inspect the actual comparator waveforms.

Implementation: classic SPICE-style transient — each component stamps
its backward-Euler *companion model* through the same
:class:`repro.spice.components.StampContext` protocol the AC/DC
analyses use (:meth:`~repro.spice.components.Component.stamp_companion`
for the constant resistive matrix,
:meth:`~repro.spice.components.Component.stamp_companion_rhs` for the
per-step history/source terms).  The matrix is factorized once by the
selected :mod:`repro.spice.backends` backend and re-solved per step.
Linear circuits only (the package's scope), so no Newton iteration is
needed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .acmodel import GMIN
from .backends import (
    LinearSystemBackend,
    SingularSystemError,
    SystemAssembler,
    resolve_backend,
)
from .components import CurrentSource, StampContext, VoltageSource
from .netlist import GROUND, AnalogCircuit, AnalogError

__all__ = [
    "TransientResult",
    "TransientSolver",
    "TransientState",
    "sine",
    "step",
]


def sine(amplitude: float, frequency_hz: float, phase_rad: float = 0.0):
    """A sine waveform ``A·sin(2πft + φ)`` for source overrides."""

    def waveform(t: float) -> float:
        return amplitude * math.sin(2.0 * math.pi * frequency_hz * t + phase_rad)

    return waveform


def step(level: float, at: float = 0.0):
    """A step waveform: 0 before ``at``, ``level`` after."""

    def waveform(t: float) -> float:
        return level if t >= at else 0.0

    return waveform


@dataclass
class TransientResult:
    """Sampled node waveforms."""

    times: np.ndarray
    voltages: dict[str, np.ndarray]

    def waveform(self, node: str) -> np.ndarray:
        """The voltage samples of one node."""
        try:
            return self.voltages[node]
        except KeyError:
            available = ", ".join(sorted(self.voltages))
            raise AnalogError(
                f"no node named {node!r} in transient result; "
                f"available nodes: {available}"
            ) from None

    def amplitude(self, node: str, settle_fraction: float = 0.5) -> float:
        """Peak |v| over the settled tail of the simulation."""
        samples = self.waveform(node)
        start = int(len(samples) * settle_fraction)
        return float(np.max(np.abs(samples[start:])))

    def comparator_output(
        self, node: str, vref: float, settle_fraction: float = 0.0
    ) -> np.ndarray:
        """The bit stream ``v(node) > vref`` (the paper's ``Vd``)."""
        samples = self.waveform(node)
        start = int(len(samples) * settle_fraction)
        return (samples[start:] > vref).astype(int)

    def duty_above(self, node: str, vref: float, settle_fraction: float = 0.5) -> float:
        """Fraction of settled time the node spends above ``vref``.

        This is the paper's ``Tp`` (normalized): the window during which
        the comparator reads 1.
        """
        bits = self.comparator_output(node, vref, settle_fraction)
        if len(bits) == 0:
            return 0.0
        return float(np.mean(bits))


class TransientState:
    """Previous-step solution and source drive, as seen by RHS stamps.

    Passed to :meth:`repro.spice.components.Component.
    stamp_companion_rhs`; exposes the previous node voltages, the
    previous branch currents, the current simulation time, and the
    per-source waveform overrides.
    """

    def __init__(
        self,
        node_index: Mapping[str, int],
        branch_rows: Mapping[str, int],
        waveforms: Mapping[str, Callable[[float], float]],
        n_nodes: int,
    ):
        self._node_index = node_index
        self._branch_rows = branch_rows
        self._waveforms = waveforms
        self._n_nodes = n_nodes
        self.time = 0.0
        self._voltages = np.zeros(n_nodes)
        self._branch = np.zeros(0)

    def advance(self, solution: np.ndarray, time: float) -> None:
        """Install one solved step as the new previous state."""
        self._voltages = solution[: self._n_nodes]
        self._branch = solution[self._n_nodes :]
        self.time = time

    def set_initial(self, initial: Mapping[str, float]) -> None:
        """Seed the previous node voltages (t = 0 state)."""
        for name, level in initial.items():
            if name != GROUND:
                self._voltages[self._node_index[name]] = level

    @property
    def voltages(self) -> np.ndarray:
        """Previous-step node voltages (solver ordering)."""
        return self._voltages

    def voltage(self, node: str) -> float:
        """Previous-step voltage of one node (0.0 for ground)."""
        if node == GROUND:
            return 0.0
        return float(self._voltages[self._node_index[node]])

    def branch_current(self, component_name: str) -> float:
        """Previous-step current of one branch-forming device."""
        row = self._branch_rows[component_name]
        index = row - self._n_nodes
        if index >= len(self._branch):
            return 0.0
        return float(self._branch[index])

    def source_level(self, component) -> float:
        """The live drive level of an independent source at ``time``."""
        waveform = self._waveforms.get(component.name)
        return waveform(self.time) if waveform else component.dc


class _RhsStampContext(StampContext):
    """Write-only stamp context for the per-step RHS pass.

    Branch rows were all allocated during the static companion assembly,
    so this context only *looks up*; matrix entries are rejected loudly
    (the companion matrix is constant by construction).
    """

    def __init__(
        self,
        node_index: Mapping[str, int],
        branch_rows: Mapping[str, int],
        rhs: np.ndarray,
    ):
        self._node_index = node_index
        self._branch_rows = branch_rows
        self._rhs = rhs

    def index(self, node: str) -> int | None:
        if node == GROUND:
            return None
        try:
            return self._node_index[node]
        except KeyError:
            raise AnalogError(f"unknown node {node!r}") from None

    def branch(self, tag: str) -> int:
        try:
            return self._branch_rows[tag]
        except KeyError:
            raise AnalogError(
                f"component {tag!r} allocated no branch in the companion "
                "system"
            ) from None

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        raise AnalogError(
            "matrix entries cannot be stamped during the transient RHS "
            "pass; put them in stamp_companion()"
        )

    def rhs(self, row: int | None, value: complex) -> None:
        if row is None:
            return
        self._rhs[row] += value


class TransientSolver:
    """Backward-Euler transient analysis of a linear analog circuit.

    ``backend`` selects the linear-system engine (``"auto"`` picks
    sparse above the node-count threshold), exactly as for
    :class:`repro.spice.MnaSolver`; the companion matrix is factorized
    once and re-solved per timestep.
    """

    def __init__(
        self,
        circuit: AnalogCircuit,
        backend: str | LinearSystemBackend = "auto",
    ):
        self.circuit = circuit
        self._node_index = {
            node: index for index, node in enumerate(circuit.nodes())
        }
        self._n_nodes = len(self._node_index)
        self.backend = resolve_backend(backend, n_nodes=self._n_nodes)
        self._patterns: dict[bytes, object] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        t_stop: float,
        dt: float,
        source_waveforms: Mapping[str, Callable[[float], float]] | None = None,
        initial: Mapping[str, float] | None = None,
    ) -> TransientResult:
        """Simulate from 0 to ``t_stop`` with a fixed step ``dt``.

        Args:
            source_waveforms: per-source time functions overriding the
                source's static ``dc`` level.
            initial: initial node voltages (default: all zero — start
                from rest, as the paper's bench does).
        """
        if dt <= 0 or t_stop <= dt:
            raise AnalogError("need 0 < dt < t_stop")
        source_waveforms = dict(source_waveforms or {})
        sources = {
            component.name
            for component in self.circuit.components
            if isinstance(component, (VoltageSource, CurrentSource))
        }
        for name in source_waveforms:
            if name not in sources:
                raise AnalogError(
                    f"no independent source named {name!r} in "
                    f"{self.circuit.name!r} to drive"
                )
        for node in initial or {}:
            if node != GROUND and node not in self._node_index:
                raise AnalogError(
                    f"no node named {node!r} in {self.circuit.name!r} "
                    "to set an initial voltage on"
                )
        n_steps = int(round(t_stop / dt))
        times = np.arange(1, n_steps + 1) * dt

        # The companion matrix is constant (linear circuit, fixed step):
        # stamp it once through the shared assembler and factorize with
        # the selected backend; per-step only the RHS changes.
        assembler = SystemAssembler(self._node_index, dtype=float)
        values: list[float] = []
        for component in self.circuit.components:
            value = (
                self.circuit.nominal_value(component.name)
                if component.has_value
                else 0.0
            )
            values.append(value)
            component.stamp_companion(assembler, value, dt)
        if assembler.size == 0:
            raise AnalogError(f"circuit {self.circuit.name!r} is empty")
        system = assembler.finish(gmin=GMIN)
        try:
            factorization = self.backend.factorize(system, self._patterns)
        except SingularSystemError as exc:
            raise AnalogError(
                f"singular transient system for {self.circuit.name!r}: {exc}"
            ) from exc

        branch_rows = assembler.branch_rows
        state = TransientState(
            self._node_index, branch_rows, source_waveforms, self._n_nodes
        )
        if initial:
            state.set_initial(initial)

        recorded = {
            name: np.zeros(n_steps) for name in self._node_index
        }
        rhs = np.zeros(system.size)
        rhs_ctx = _RhsStampContext(self._node_index, branch_rows, rhs)
        components = self.circuit.components
        for step_index, t in enumerate(times):
            state.time = t
            rhs[:] = 0.0
            for component, value in zip(components, values):
                component.stamp_companion_rhs(rhs_ctx, value, dt, state)
            solution = factorization.solve(rhs)
            state.advance(solution, t)
            for name, node_index in self._node_index.items():
                recorded[name][step_index] = solution[node_index]
        return TransientResult(times, recorded)
