"""Compiled AC model: the one place a circuit state becomes an MNA system.

Every performance measurement (:mod:`repro.spice.measure`) searches
``|H(f)| = |v(output) / v(source)|`` over frequency, and ``MnaSolver``
and the campaign's ``FactorizedMna`` solve whole systems.
All of them compile the circuit into an :class:`AcModel`, which walks
the netlist once and keeps the result as a *stamp program*:

* the node index and branch rows of the MNA system;
* the frequency-independent entries (resistors, controlled sources,
  ideal op-amps, sources, ``GMIN``), pre-accumulated;
* the ``s``-proportional entries (capacitors) as coefficients ``c`` with
  ``A[i, j] += s·c``;
* the entries of ``s``-nonlinear devices (``FiniteOpAmp``, ``Inductor``
  and any component type not listed above), re-stamped per frequency;
* the right-hand side with the measured source at unit amplitude
  (:func:`unit_driven`), so the output phasor *is* the transfer value.

:meth:`AcModel.system` is the system at one frequency in triplet form,
which whole solves and LU factorizations hand to a backend.  ``H`` over
a whole frequency vector is then one stacked ``np.linalg.solve`` (in
chunks of at most :data:`STACK_ENTRIES` matrix entries), and ``H`` at
one frequency is one small dense solve.  Circuits large enough for
``resolve_backend("auto")`` to pick the sparse backend are evaluated per
frequency through that backend instead of a dense stack.

Another deviation state is a *stamp delta* (:meth:`AcModel.at_state`):
only the deviated resistors, capacitors and VCCSs are re-stamped, and
only the matrix positions they touch are re-summed, in program order, so
the derived model ``==`` a fresh compile entry for entry.  Any other
deviated device (one that owns a branch row or is ``s``-nonlinear) and
non-dense backends compile the state in full.

Results are bit-identical to stamping every component into a
:class:`~repro.spice.backends.SystemAssembler` and solving that system:
each matrix position accumulates its entries in the same order as
:meth:`~repro.spice.backends.AssembledSystem.to_dense`, and ``s =
2j·π·f`` is formed by :func:`laplace` everywhere.  The pre-accumulation
is exact because complex addition is componentwise: constant entries
carry a ``+0.0`` imaginary part and capacitor entries a ``±0.0`` real
part, and adding a signed zero never changes a running sum that starts
at ``+0.0``.  DC (``f = 0``) stamps the components at ``s = 0``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .backends import (
    AssembledSystem,
    DenseBackend,
    LinearFactorization,
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
from .netlist import GROUND, AnalogCircuit, AnalogError

__all__ = ["AcModel", "GMIN", "STACK_ENTRIES", "laplace", "unit_driven"]

#: conductance added from every node to ground; keeps matrices
#: non-singular for nodes isolated at DC (e.g. between two capacitors)
#: without measurably perturbing kilo-ohm scale circuits.
GMIN = 1.0e-12

#: upper bound on the complex entries (frequencies × n²) of one stacked
#: dense solve; longer frequency vectors are solved in chunks.
STACK_ENTRIES = 1 << 18

#: component types whose stamp does not depend on ``s`` (for ``s ≠ 0``).
_CONSTANT_TYPES = (
    Resistor, VCVS, VCCS, IdealOpAmp, VoltageSource, CurrentSource,
)
#: component types whose every stamp entry is ``s`` times a constant.
_S_LINEAR_TYPES = (Capacitor,)

#: component types a deviation state may re-stamp in place: their stamp
#: pattern does not depend on the value and they own no branch row.
_RESTAMPABLE_TYPES = (Resistor, Capacitor, VCCS)

# entry kinds of the stamp program
_CONSTANT, _S_LINEAR, _DYNAMIC = 0, 1, 2

# where a program entry lives in the dense form: summed into ``_constant``,
# a coefficient of an ``s`` layer, or one term of a dynamic position's sum
_SUMMED, _LAYERED, _PER_FREQUENCY = 0, 1, 2

#: any nonzero ``s``: constant-type components stamp their AC form.
_AC_PROBE = 1j


def laplace(frequency_hz: float) -> complex:
    """``s = 2j·π·f`` as every MNA system is stamped at — the frequency's
    own type (a numpy scalar from the bounded peak search, say)
    included; ``0.0`` selects DC."""
    return 2j * math.pi * frequency_hz if frequency_hz else 0.0


def unit_driven(circuit: AnalogCircuit, source: str | None) -> list:
    """The circuit's components, with voltage source ``source`` driven at
    unit amplitude.

    The source is replaced by a copy with ``ac = dc = 1``, so the output
    phasor of the assembled system *is* the transfer value, for the AC
    and DC systems alike.  The circuit itself is only read, never
    written.  ``source=None`` returns the components as built.
    """
    if source is None:
        return circuit.components
    driven = circuit.component(source)
    if not isinstance(driven, VoltageSource):
        raise AnalogError(f"{source!r} is not a voltage source")
    unit = dataclasses.replace(driven, ac=1.0, dc=1.0)
    return [unit if c is driven else c for c in circuit.components]


def _kind(component) -> int:
    """How a component's stamp depends on ``s`` (exact type: a subclass
    may override ``stamp``, so it is re-stamped per frequency)."""
    if type(component) in _S_LINEAR_TYPES:
        return _S_LINEAR
    if type(component) in _CONSTANT_TYPES:
        return _CONSTANT
    return _DYNAMIC


class _Recorder(SystemAssembler):
    """A :class:`SystemAssembler` that keeps each matrix entry's row,
    column, value and emitting component (by position in the netlist)
    in parallel lists instead of ``entries``."""

    def __init__(self, node_index: dict[str, int]):
        super().__init__(node_index, dtype=complex)
        self.owner = -1
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.values: list[complex] = []
        self.owners: list[int] = []

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        self.rows.append(row)
        self.cols.append(col)
        self.values.append(value)
        self.owners.append(self.owner)


class _Stamps(StampContext):
    """Collects matrix entries (flat position, value) against the compiled
    node index and branch rows: the ``s``-nonlinear devices at one
    frequency, or the components a deviation state re-stamps."""

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


class _Delta(_Stamps):
    """The *difference* of two stampings of one component, summed per
    matrix position as it is stamped: ``sign = -1`` for the baseline
    stamp, ``+1`` for the deviated one."""

    def __init__(self, node_index: dict[str, int], branch_rows: dict[str, int]):
        super().__init__(node_index, branch_rows, 0)
        self.sign = 1.0
        self.entries: dict[tuple[int, int], complex] = {}
        self.rhs_touched = False

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        key = (row, col)
        self.entries[key] = self.entries.get(key, 0.0) + self.sign * value

    def rhs(self, row: int | None, value: complex) -> None:
        # Value-carrying components never stamp the right-hand side; one
        # that does cannot be patched with a matrix-only update.
        if row is not None:
            self.rhs_touched = True


class AcModel:
    """The MNA system of one circuit state, compiled, and its transfer
    function ``H(f) = v(output)/v(source)``.

    ``deviations`` (element → relative deviation, None = nominal) is
    the state to compile; the circuit is only read, never written, so
    one circuit may be measured from many threads at once.  The model
    captures the element values at construction; :meth:`at_state`
    derives the model of another deviation state from it.  With
    ``output=None`` (or ground) ``H`` reads ``0``; :meth:`system` serves
    every unknown either way.
    """

    def __init__(
        self,
        circuit: AnalogCircuit,
        source: str | None,
        output: str | None = None,
        deviations: dict[str, float] | None = None,
        backend: str | LinearSystemBackend = "auto",
    ):
        self._components = unit_driven(circuit, source)
        self.circuit = circuit
        self._source = source
        self._state = circuit.deviation_state(deviations)
        self.node_index = {
            node: index for index, node in enumerate(circuit.nodes())
        }
        self._output_name = output
        if output is None or output == GROUND:
            self._output: int | None = None
        elif output in self.node_index:
            self._output = self.node_index[output]
        else:
            raise AnalogError(f"no node named {output!r} in solution")
        self.backend = resolve_backend(backend, n_nodes=len(self.node_index))
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
        recorder = _Recorder(self.node_index)
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
        self.branch_rows = recorder.branch_rows
        self._rhs = recorder.finish().rhs
        # The program: each entry's kind, flat position and payload in
        # stamping order, GMIN last (the order SystemAssembler.finish()
        # lays entries out in), rows and columns beside.  Parallel lists,
        # not a tuple per entry: thousands of long-lived tuples slow every
        # garbage collection of a long campaign.
        n_nodes = len(self.node_index)
        self._rows = recorder.rows + list(range(n_nodes))
        self._cols = recorder.cols + list(range(n_nodes))
        entry_kinds = [kinds[owner] for owner in recorder.owners]
        entry_kinds.extend([_CONSTANT] * n_nodes)
        flats = [row * size + col for row, col in zip(self._rows, self._cols)]
        values = recorder.values + [GMIN] * n_nodes
        self._program = (entry_kinds, flats, values)
        self._dynamic_devices = [
            (component, self._value(component))
            for component, kind in zip(components, kinds)
            if kind == _DYNAMIC
        ]
        self._dynamic_flats = [
            flat for kind, flat in zip(entry_kinds, flats) if kind == _DYNAMIC
        ]
        if self.backend.name != DenseBackend.name:
            return
        # Dense form: positions touched by a dynamic entry are summed per
        # frequency in full; every other position is a constant real part
        # plus layered s-coefficient imaginary parts.  Each entry's slot
        # in that form is kept for at_state().
        dynamic_positions = sorted(set(self._dynamic_flats))
        dynamic_slot = {flat: k for k, flat in enumerate(dynamic_positions)}
        constant = np.zeros(size * size, dtype=complex)
        layers: list[tuple[list[int], list[float]]] = []
        depth: dict[int, int] = {}
        per_position: list[list[tuple[int, complex]]] = [
            [] for _ in dynamic_positions
        ]
        slots: list[tuple[int, int, int]] = []
        summed_at: dict[int, list[int]] = {}
        dynamic_index = 0
        for index, (kind, flat, value) in enumerate(zip(*self._program)):
            if kind == _DYNAMIC:
                # payload becomes the entry's index among dynamic values
                value = dynamic_index
                dynamic_index += 1
            if flat in dynamic_slot:
                k = dynamic_slot[flat]
                slots.append((_PER_FREQUENCY, k, len(per_position[k])))
                per_position[k].append((kind, value))
            elif kind == _CONSTANT:
                slots.append((_SUMMED, flat, -1))
                summed_at.setdefault(flat, []).append(index)
                constant[flat] += value
            else:
                layer = depth.get(flat, 0)
                depth[flat] = layer + 1
                if layer == len(layers):
                    layers.append(([], []))
                slots.append((_LAYERED, layer, len(layers[layer][0])))
                layers[layer][0].append(flat)
                layers[layer][1].append(value)
        self._constant = constant
        self._s_layers = [
            (np.asarray(flats, dtype=np.intp), np.asarray(coefs, dtype=float))
            for flats, coefs in layers
        ]
        self._dynamic_positions = np.asarray(dynamic_positions, dtype=np.intp)
        self._dynamic_sums = per_position
        self._slots = slots
        self._summed_at = summed_at
        # The program entries of each component at_state() may re-stamp.
        emitted: dict[str, list[int]] = {}
        for index, owner in enumerate(recorder.owners):
            component = components[owner]
            if type(component) in _RESTAMPABLE_TYPES:
                emitted.setdefault(component.name, []).append(index)
        self._emitted = emitted

    # ------------------------------------------------------------------
    # Stamp deltas
    # ------------------------------------------------------------------
    def at_state(self, deviations: dict[str, float] | None = None) -> "AcModel":
        """The model of the same (circuit, source, output) at another
        deviation state, ``==`` ``AcModel(circuit, source, output,
        deviations)`` entry for entry.

        ``deviations`` is a whole state, as in the constructor (None =
        nominal).  When only resistors, capacitors and VCCSs differ from
        this model's state (on the dense backend), just those components
        are re-stamped and just the positions they touch re-summed, in
        program order; anything else compiles the state in full.  This
        model is never written.
        """
        state = self.circuit.deviation_state(deviations)
        changed = sorted(
            name
            for name in state.keys() | self._state.keys()
            if state.get(name, 0.0) != self._state.get(name, 0.0)
        )
        if not changed:
            return self
        if self.backend.name != DenseBackend.name or not all(
            name in self._emitted for name in changed
        ):
            return self._compiled(deviations)
        model = object.__new__(AcModel)
        model.__dict__.update(self.__dict__)
        model._state = state
        model._patterns = {}
        model._dc = None
        entry_kinds, flats, values = self._program
        values = list(values)
        stamps = _Stamps(self.node_index, self.branch_rows, self._size)
        for name in changed:
            component = self.circuit.component(name)
            stamps.flats, stamps.values = [], []
            at = 1.0 if _kind(component) == _S_LINEAR else _AC_PROBE
            component.stamp(stamps, at, model._value(component))
            entries = self._emitted[name]
            if stamps.flats != [flats[index] for index in entries]:
                # not the pattern it was compiled with: no delta to take
                return self._compiled(deviations)
            for index, value in zip(entries, stamps.values):
                values[index] = value
        model._program = (entry_kinds, flats, values)
        model._constant = constant = self._constant.copy()
        model._s_layers = layers = list(self._s_layers)
        model._dynamic_sums = sums = list(self._dynamic_sums)
        resummed: set[int] = set()
        copied: set[tuple[int, int]] = set()
        for name in changed:
            for index in self._emitted[name]:
                where, a, b = self._slots[index]
                kind, value = entry_kinds[index], values[index]
                if where == _SUMMED:
                    if a not in resummed:
                        resummed.add(a)
                        constant[a] = 0.0
                        for term in self._summed_at[a]:
                            constant[a] += values[term]
                elif where == _LAYERED:
                    if (where, a) not in copied:
                        copied.add((where, a))
                        layers[a] = (layers[a][0], layers[a][1].copy())
                    layers[a][1][b] = value
                else:
                    if (where, a) not in copied:
                        copied.add((where, a))
                        sums[a] = list(sums[a])
                    sums[a][b] = (kind, value)
        return model

    def stamp_delta(
        self, component, s: complex, value: float
    ) -> tuple[dict[tuple[int, int], complex], bool]:
        """How stamping ``component`` at ``s`` with ``value`` instead of
        the value this model was compiled with changes the system:
        ``(entries keyed by (row, col), rhs_touched)``."""
        delta = _Delta(self.node_index, self.branch_rows)
        delta.sign = -1.0
        component.stamp(delta, s, self._value(component))
        delta.sign = +1.0
        component.stamp(delta, s, value)
        return delta.entries, delta.rhs_touched

    def _compiled(self, deviations: dict[str, float] | None) -> "AcModel":
        return AcModel(
            self.circuit, self._source, self._output_name, deviations,
            self.backend,
        )

    # ------------------------------------------------------------------
    # Per-frequency pieces
    # ------------------------------------------------------------------
    def _dynamic_values(self, s: complex) -> list[complex]:
        """The stamp values of the ``s``-nonlinear devices at ``s``."""
        stamps = _Stamps(self.node_index, self.branch_rows, self._size)
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
        """The AC system at ``s`` in triplet form."""
        dynamic = iter(self._dynamic_values(s))
        entry_kinds, _, values = self._program
        values = [
            s * value if kind == _S_LINEAR
            else next(dynamic) if kind == _DYNAMIC
            else value
            for kind, value in zip(entry_kinds, values)
        ]
        return AssembledSystem(
            size=self._size,
            entries=list(zip(self._rows, self._cols, values)),
            rhs=self._rhs,
        )

    def _dc_system(self) -> AssembledSystem:
        if self._dc is None:
            recorder = self._record(0.0, [_CONSTANT] * len(self._components))
            recorder.entries = list(
                zip(recorder.rows, recorder.cols, recorder.values)
            )
            self._dc = recorder.finish(gmin=GMIN)
        return self._dc

    def system(self, frequency_hz: float) -> AssembledSystem:
        """The MNA system at one frequency in triplet form; ``0.0``
        selects the DC system."""
        s = laplace(frequency_hz)
        return self._system(s) if s else self._dc_system()

    def _singular(self, frequency_hz, exc: Exception) -> AnalogError:
        return AnalogError(
            f"singular MNA system for {self.circuit.name!r} at "
            f"{frequency_hz} Hz: {exc}"
        )

    def solve(
        self, frequency_hz: float, pattern_cache: dict | None = None
    ) -> np.ndarray:
        """Every unknown at one frequency (node voltages in
        ``node_index`` order, then branch currents): one backend
        ``solve_once`` of :meth:`system`."""
        try:
            return self.backend.solve_once(
                self.system(frequency_hz), pattern_cache
            )
        except SingularSystemError as exc:
            raise self._singular(frequency_hz, exc) from exc

    def factorize(
        self, frequency_hz: float, pattern_cache: dict | None = None
    ) -> tuple[AssembledSystem, LinearFactorization]:
        """:meth:`system` at one frequency and its LU factorization."""
        system = self.system(frequency_hz)
        try:
            return system, self.backend.factorize(system, pattern_cache)
        except SingularSystemError as exc:
            raise self._singular(frequency_hz, exc) from exc

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def transfer(self, frequency_hz: float) -> complex:
        """``H(f)``; ``0.0`` selects the DC system."""
        if self._output is None:
            return 0.0 + 0.0j
        s = laplace(frequency_hz)
        if not s or self.backend.name != DenseBackend.name:
            vector = self.solve(frequency_hz, self._patterns)
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
