"""Compiled AC model: one transfer function ``H(f)`` as a stamp program.

Every analog performance measurement (:mod:`repro.spice.measure`) is a
search over frequency of ``|H(f)| = |v(output) / v(source)|``.  Solving
each frequency with a fresh :class:`MnaSolver` re-walks the netlist,
re-stamps every component and assembles a new matrix every time.  An
:class:`AcModel` does that walk once per (circuit, source, output,
deviation state) and keeps the result as a *stamp program*:

* the node index and branch rows of the MNA system;
* the frequency-independent entries (resistors, controlled sources,
  ideal op-amps, sources, ``GMIN``), pre-accumulated;
* the ``s``-proportional entries (capacitors) as coefficients ``c`` with
  ``A[i, j] += s·c``;
* the entries of ``s``-nonlinear devices (``FiniteOpAmp``, ``Inductor``
  and any component type not listed above), re-stamped per frequency;
* the right-hand side with the measured source at unit amplitude, so the
  output phasor *is* the transfer value — no source is ever mutated.

``H`` over a whole frequency vector is then one stacked
``np.linalg.solve`` (in chunks of at most :data:`STACK_ENTRIES` matrix
entries), and ``H`` at one frequency is one small dense solve.  Circuits
large enough for ``resolve_backend("auto")`` to pick the sparse backend
are evaluated per frequency through that backend instead of a dense
stack.

Results are bit-identical to ``MnaSolver(circuit, source=...).solve(f)``:
both stamp the same unit-driven component list
(:func:`~repro.spice.mna.unit_driven`), each matrix position
accumulates its entries in the same order as
:meth:`~repro.spice.backends.AssembledSystem.to_dense`, and
``s = 2j·π·f`` is formed exactly as :class:`MnaSolver` forms it.  The
pre-accumulation is exact because complex addition is componentwise:
constant entries carry a ``+0.0`` imaginary part and capacitor entries a
``±0.0`` real part, and adding a signed zero never changes a running
sum that starts at ``+0.0``.  DC (``f = 0``) takes the scalar assembly
path verbatim.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .backends import (
    AssembledSystem,
    DenseBackend,
    LinearSystemBackend,
    SingularSystemError,
    SystemAssembler,
    resolve_backend,
)
from .components import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    IdealOpAmp,
    Resistor,
    StampContext,
    VoltageSource,
)
from .mna import MnaSolver, unit_driven
from .netlist import GROUND, AnalogCircuit, AnalogError

__all__ = ["AcModel", "STACK_ENTRIES"]

#: upper bound on the complex entries (frequencies × n²) of one stacked
#: dense solve; longer frequency vectors are solved in chunks.
STACK_ENTRIES = 1 << 18

#: component types whose stamp does not depend on ``s`` (for ``s ≠ 0``).
_CONSTANT_TYPES = (
    Resistor, VCVS, VCCS, IdealOpAmp, VoltageSource, CurrentSource,
)
#: component types whose every stamp entry is ``s`` times a constant.
_S_LINEAR_TYPES = (Capacitor,)

# entry kinds of the stamp program
_CONSTANT, _S_LINEAR, _DYNAMIC = 0, 1, 2

#: any nonzero ``s``: constant-type components stamp their AC form.
_AC_PROBE = 1j


def _kind(component) -> int:
    """How a component's stamp depends on ``s`` (exact type: a subclass
    may override ``stamp``, so it is re-stamped per frequency)."""
    if type(component) in _S_LINEAR_TYPES:
        return _S_LINEAR
    if type(component) in _CONSTANT_TYPES:
        return _CONSTANT
    return _DYNAMIC


class _Recorder(SystemAssembler):
    """A :class:`SystemAssembler` that remembers which component (by
    position in the netlist) emitted each matrix entry."""

    def __init__(self, node_index: dict[str, int]):
        super().__init__(node_index, dtype=complex)
        self.owner = -1
        self.owners: list[int] = []

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        self.entries.append((row, col, value))
        self.owners.append(self.owner)


class _DynamicStamps(StampContext):
    """Collects the matrix entries of ``s``-nonlinear devices at one
    frequency, against the compiled node index and branch rows."""

    def __init__(
        self,
        node_index: dict[str, int],
        branch_rows: dict[str, int],
        size: int,
    ):
        self._node_index = node_index
        self._branch_rows = branch_rows
        self._size = size
        self.flats: list[int] = []
        self.values: list[complex] = []

    def index(self, node: str) -> int | None:
        return None if node == GROUND else self._node_index[node]

    def branch(self, tag: str) -> int:
        return self._branch_rows[tag]

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        self.flats.append(row * self._size + col)
        self.values.append(value)

    def rhs(self, row: int | None, value: complex) -> None:
        pass  # right-hand sides are frequency independent (compiled)


class AcModel:
    """``H(f) = v(output)/v(source)`` of one circuit state, compiled.

    ``deviations`` is laid over the circuit's own deviation state, like
    :meth:`AnalogCircuit.with_deviations` — but the circuit is only
    read, never written, so one circuit may be measured from many
    threads at once.  The model captures the element values at
    construction; compile a new one for another deviation state.
    """

    def __init__(
        self,
        circuit: AnalogCircuit,
        source: str,
        output: str,
        deviations: dict[str, float] | None = None,
        backend: str | LinearSystemBackend = "auto",
    ):
        self._components = unit_driven(circuit, source)
        self.circuit = circuit
        self._state = circuit.deviation_state(deviations)
        self._node_index = {
            node: index for index, node in enumerate(circuit.nodes())
        }
        if output == GROUND:
            self._output: int | None = None
        elif output in self._node_index:
            self._output = self._node_index[output]
        else:
            raise AnalogError(f"no node named {output!r} in solution")
        self.backend = resolve_backend(backend, n_nodes=len(self._node_index))
        self._patterns: dict[bytes, object] = {}
        self._dc: AssembledSystem | None = None
        self._compile_ac()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _value(self, component) -> float:
        if not component.has_value:
            return 0.0
        return self.circuit.effective_value(component.name, self._state)

    def _record(self, s: complex, kinds: list[int]) -> _Recorder:
        """Stamp every component once at ``s``; ``_S_LINEAR`` components
        are stamped at ``s = 1``, which records their coefficients."""
        recorder = _Recorder(self._node_index)
        for owner, component in enumerate(self._components):
            recorder.owner = owner
            at = 1.0 if kinds[owner] == _S_LINEAR else s
            component.stamp(recorder, at, self._value(component))
        if recorder.size == 0:
            raise AnalogError(f"circuit {self.circuit.name!r} is empty")
        return recorder

    def _compile_ac(self) -> None:
        components = self._components
        kinds = [_kind(component) for component in components]
        recorder = self._record(_AC_PROBE, kinds)
        size = self._size = recorder.size
        self._branch_rows = recorder.branch_rows
        self._rhs = recorder.finish().rhs
        # (kind, flat position, payload) in stamping order, GMIN last —
        # the order SystemAssembler.finish() lays the entries out in.
        program = [
            (kinds[owner], row * size + col, value)
            for (row, col, value), owner in zip(
                recorder.entries, recorder.owners
            )
        ]
        program.extend(
            (_CONSTANT, index * size + index, MnaSolver.GMIN)
            for index in range(len(self._node_index))
        )
        self._program = program
        self._dynamic_devices = [
            (component, self._value(component))
            for component, kind in zip(components, kinds)
            if kind == _DYNAMIC
        ]
        self._dynamic_flats = [
            flat for kind, flat, _ in program if kind == _DYNAMIC
        ]
        if self.backend.name != DenseBackend.name:
            return
        # Dense form: positions touched by a dynamic entry are summed per
        # frequency in full; every other position is a constant real part
        # plus layered s-coefficient imaginary parts.
        dynamic_positions = sorted(set(self._dynamic_flats))
        dynamic_set = set(dynamic_positions)
        constant = np.zeros(size * size, dtype=complex)
        layers: list[tuple[list[int], list[float]]] = []
        depth: dict[int, int] = {}
        per_position: dict[int, list[tuple[int, complex]]] = {
            flat: [] for flat in dynamic_positions
        }
        dynamic_index = 0
        for kind, flat, value in self._program:
            if kind == _DYNAMIC:
                # payload becomes the entry's index among dynamic values
                value = dynamic_index
                dynamic_index += 1
            if flat in dynamic_set:
                per_position[flat].append((kind, value))
            elif kind == _CONSTANT:
                constant[flat] += value
            else:
                layer = depth.get(flat, 0)
                depth[flat] = layer + 1
                if layer == len(layers):
                    layers.append(([], []))
                layers[layer][0].append(flat)
                layers[layer][1].append(value)
        self._constant = constant
        self._s_layers = [
            (np.asarray(flats, dtype=np.intp), np.asarray(coefs, dtype=float))
            for flats, coefs in layers
        ]
        self._dynamic_positions = np.asarray(dynamic_positions, dtype=np.intp)
        self._dynamic_sums = [per_position[flat] for flat in dynamic_positions]

    # ------------------------------------------------------------------
    # Per-frequency pieces
    # ------------------------------------------------------------------
    def _dynamic_values(self, s: complex) -> list[complex]:
        """The stamp values of the ``s``-nonlinear devices at ``s``."""
        stamps = _DynamicStamps(
            self._node_index, self._branch_rows, self._size
        )
        for component, value in self._dynamic_devices:
            component.stamp(stamps, s, value)
        if stamps.flats != self._dynamic_flats:
            raise AnalogError(
                f"circuit {self.circuit.name!r}: a device's stamp pattern "
                "changes with frequency; cannot compile it"
            )
        return stamps.values

    def _dynamic_row(self, s: complex) -> list[complex]:
        """Fully accumulated values of the dynamic positions at ``s``."""
        values = self._dynamic_values(s)
        row = []
        for entries in self._dynamic_sums:
            total = 0j
            for kind, payload in entries:
                if kind == _CONSTANT:
                    total += payload
                elif kind == _S_LINEAR:
                    total += s * payload
                else:
                    total += values[payload]
            row.append(total)
        return row

    def _system(self, s: complex) -> AssembledSystem:
        """The AC system at ``s`` in triplet form (non-dense backends)."""
        dynamic = iter(self._dynamic_values(s))
        size = self._size
        entries = []
        for kind, flat, value in self._program:
            if kind == _S_LINEAR:
                value = s * value
            elif kind == _DYNAMIC:
                value = next(dynamic)
            entries.append(divmod(flat, size) + (value,))
        return AssembledSystem(size=size, entries=entries, rhs=self._rhs)

    def _dc_system(self) -> AssembledSystem:
        if self._dc is None:
            kinds = [_CONSTANT] * len(self._components)
            self._dc = self._record(0.0, kinds).finish(gmin=MnaSolver.GMIN)
        return self._dc

    def _singular(self, frequency_hz, exc: Exception) -> AnalogError:
        return AnalogError(
            f"singular MNA system for {self.circuit.name!r} at "
            f"{frequency_hz} Hz: {exc}"
        )

    def _solve_once(self, system: AssembledSystem, frequency_hz) -> np.ndarray:
        try:
            return self.backend.solve_once(system, self._patterns)
        except SingularSystemError as exc:
            raise self._singular(frequency_hz, exc) from exc

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def transfer(self, frequency_hz: float) -> complex:
        """``H(f)``; ``0.0`` selects the DC system."""
        if self._output is None:
            return 0.0 + 0.0j
        # Formed exactly as MnaSolver forms it — the frequency's own
        # type (a numpy scalar from a scipy search, say) included.
        s = 2j * math.pi * frequency_hz if frequency_hz else 0.0
        if not s:
            vector = self._solve_once(self._dc_system(), frequency_hz)
        elif self.backend.name != DenseBackend.name:
            vector = self._solve_once(self._system(s), frequency_hz)
        else:
            matrix = self._constant.copy()
            imag = matrix.imag
            w = s.imag
            for flats, coefs in self._s_layers:
                imag[flats] += w * coefs
            if self._dynamic_devices:
                matrix[self._dynamic_positions] = self._dynamic_row(s)
            try:
                vector = np.linalg.solve(
                    matrix.reshape(self._size, self._size), self._rhs
                )
            except np.linalg.LinAlgError as exc:
                raise self._singular(
                    frequency_hz, SingularSystemError(str(exc))
                ) from exc
        return complex(vector[self._output])

    def gain(self, frequency_hz: float) -> float:
        """``|H(f)|``."""
        return abs(self.transfer(frequency_hz))

    def transfers(self, frequencies_hz: Sequence[float]) -> list[complex]:
        """``H`` over a frequency vector, element for element equal to
        :meth:`transfer`; nonzero frequencies on the dense backend are
        solved as stacked systems."""
        frequencies = list(frequencies_hz)
        if (
            self._output is None
            or self.backend.name != DenseBackend.name
            or not all(frequencies)
        ):
            return [self.transfer(f) for f in frequencies]
        chunk = max(1, STACK_ENTRIES // (self._size * self._size))
        values: list[complex] = []
        for start in range(0, len(frequencies), chunk):
            values.extend(self._stacked(frequencies[start:start + chunk]))
        return values

    def gains(self, frequencies_hz: Sequence[float]) -> list[float]:
        """``|H|`` over a frequency vector (see :meth:`transfers`)."""
        return [abs(h) for h in self.transfers(frequencies_hz)]

    def _stacked(self, frequencies: list[float]) -> list[complex]:
        size = self._size
        s_values = [2j * math.pi * f for f in frequencies]
        stack = np.empty((len(frequencies), size * size), dtype=complex)
        stack[:] = self._constant
        imag = stack.imag
        w = np.array([s.imag for s in s_values])[:, None]
        for flats, coefs in self._s_layers:
            imag[:, flats] += w * coefs
        if self._dynamic_devices:
            stack[:, self._dynamic_positions] = [
                self._dynamic_row(s) for s in s_values
            ]
        try:
            solved = np.linalg.solve(
                stack.reshape(-1, size, size), self._rhs[:, None]
            )
        except np.linalg.LinAlgError:
            # Some system of the stack is singular: the scalar path names
            # (and raises for) the first one, as a per-frequency scan would.
            return [self.transfer(f) for f in frequencies]
        return [complex(h) for h in solved[:, self._output, 0]]
