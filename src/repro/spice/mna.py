"""Modified nodal analysis solves.

One :class:`MnaSolver` instance per circuit; each ``solve`` call
compiles the circuit as it is at that moment — its nominal element
values — into an :class:`~repro.spice.acmodel.AcModel`, the one MNA
assembler, and hands the system at the requested frequency to the
selected linear-system backend.  Singular systems (floating nodes,
contradictory sources) raise :class:`repro.spice.netlist.AnalogError`
naming the circuit and the frequency.

For repeated solves of the *same* system — frequency sweeps, and above
all fault-injection campaigns that perturb one element at a time —
:meth:`MnaSolver.factorized` returns a :class:`FactorizedMna` holding the
LU factorization of the assembled matrix.  The factorization serves

* plain re-solves at no assembly cost (:meth:`FactorizedMna.solution`),
* :meth:`FactorizedMna.deviation_batch`: the observed-node voltage of
  the circuit with a *single element deviated*, for a whole batch of
  ``(element, deviation)`` faults at once, via Sherman–Morrison
  rank-one updates (a one-element deviation perturbs only that
  element's stamp, which for every value-carrying component is a
  rank-one patch of the matrix).  The resistors, capacitors and VCCSs
  whose patch has a fixed direction get *update ports*, built once per
  factorization from the compile's record: a batch forms the stamp
  deltas of all faults of one port group with one array stamp, and
  stamps every other fault on its own.  Every distinct update
  direction is solved in a single multi-RHS backend call and the update
  scalars are evaluated as vectorized numpy expressions over the batch;
  a perturbation whose shape is not a recognized rank-one pattern, or
  an ill-conditioned update, falls back to a dense solve of the patched
  matrix.

The solver caches no factorization: each :meth:`MnaSolver.factorized`
call compiles and factors the circuit as it is at that moment, and the
caller owns the result.  With ``MnaSolver(circuit, source=name)`` every
system drives that voltage source at unit amplitude
(:func:`~repro.spice.acmodel.unit_driven`), so the solution *is* the
transfer function and the circuit is only read.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .acmodel import AcModel, laplace, unit_driven
from .backends import LinearSystemBackend, SingularSystemError, resolve_backend
from .netlist import GROUND, AnalogCircuit, AnalogError

__all__ = ["MnaSolver", "FactorizedMna", "Solution"]


class Solution:
    """Result of one MNA solve: node voltages and branch currents."""

    def __init__(
        self,
        voltages: dict[str, complex],
        branch_currents: dict[str, complex],
        frequency_hz: float,
    ):
        self._voltages = voltages
        self._branch_currents = branch_currents
        self.frequency_hz = frequency_hz

    @classmethod
    def of(cls, model: AcModel, vector, frequency_hz: float) -> "Solution":
        """Name the unknowns of a solved ``model.system(frequency_hz)``."""
        return cls(
            {node: complex(vector[i]) for node, i in model.node_index.items()},
            {tag: complex(vector[i]) for tag, i in model.branch_rows.items()},
            frequency_hz,
        )

    def voltage(self, node: str) -> complex:
        """Complex node voltage (phasor for AC, real level for DC)."""
        if node == GROUND:
            return 0.0 + 0.0j
        try:
            return self._voltages[node]
        except KeyError:
            raise AnalogError(f"no node named {node!r} in solution") from None

    def voltage_between(self, plus: str, minus: str) -> complex:
        """Differential voltage ``v(plus) − v(minus)``."""
        return self.voltage(plus) - self.voltage(minus)

    def magnitude(self, node: str) -> float:
        """|v(node)|."""
        return abs(self.voltage(node))

    def phase_deg(self, node: str) -> float:
        """Phase of v(node) in degrees."""
        return math.degrees(cmath.phase(self.voltage(node)))

    def branch_current(self, component_name: str) -> complex:
        """Current through a branch-forming device (V-source, opamp, L)."""
        try:
            return self._branch_currents[component_name]
        except KeyError:
            raise AnalogError(
                f"component {component_name!r} has no branch current"
            ) from None

    def nodes(self) -> list[str]:
        """All solved node names."""
        return list(self._voltages)


class MnaSolver:
    """Compile-and-solve wrapper around one :class:`AnalogCircuit`.

    ``backend`` selects the linear-system engine — ``"dense"`` (LAPACK
    LU), ``"sparse"`` (CSC + SuperLU with symbolic-pattern reuse), or
    ``"auto"`` (sparse at/above
    :data:`repro.spice.backends.SPARSE_AUTO_THRESHOLD` nodes); a
    ready-made :class:`repro.spice.backends.LinearSystemBackend`
    instance is accepted too.  With ``source`` set, every system drives
    that voltage source at unit amplitude (:func:`~repro.spice.acmodel.
    unit_driven`) without touching the circuit.
    """

    def __init__(
        self,
        circuit: AnalogCircuit,
        backend: str | LinearSystemBackend = "auto",
        source: str | None = None,
    ):
        unit_driven(circuit, source)  # validates the source name
        self.circuit = circuit
        self.source = source
        # "auto" depends on the node count, which the first compiled
        # model resolves from its own node index; a named backend (or
        # an unknown name) resolves, or raises, here.
        self._backend: LinearSystemBackend | None = (
            None if backend == "auto" else resolve_backend(backend)
        )
        #: caller-owned symbolic-pattern cache the sparse backend reuses
        #: across frequencies and deviation states (same topology ⇒ same
        #: sparsity structure).
        self._patterns: dict[bytes, object] = {}

    @property
    def backend(self) -> LinearSystemBackend:
        """The linear-system backend every system of this solver uses."""
        if self._backend is None:
            self._backend = resolve_backend(
                "auto", n_nodes=len(self.circuit.nodes())
            )
        return self._backend

    def _model(self) -> AcModel:
        """The circuit as it is now, compiled.  Never memoized: element
        values may be edited between calls."""
        model = AcModel(
            self.circuit, self.source, backend=self._backend or "auto"
        )
        self._backend = model.backend
        return model

    def solve(self, frequency_hz: float) -> Solution:
        """Solve at one frequency; ``0.0`` selects the DC system."""
        model = self._model()
        vector = model.solve(frequency_hz, self._patterns)
        return Solution.of(model, vector, frequency_hz)

    def solve_dc(self) -> Solution:
        """Convenience alias for ``solve(0.0)``."""
        return self.solve(0.0)

    def factorized(self, frequency_hz: float) -> "FactorizedMna":
        """A fresh LU factorization of the system at one frequency.

        Compiled from the circuit's element values as they are now.
        The solver keeps no factorization: a caller that reuses one
        holds on to it, as the campaign engine does with one per
        stimulus frequency (:meth:`factorizations`).
        """
        return self.factorizations([frequency_hz])[0]

    def factorizations(
        self, frequencies_hz: Sequence[float]
    ) -> list["FactorizedMna"]:
        """Fresh LU factorizations at several frequencies, each equal to
        :meth:`factorized`'s, from one compile of the circuit as it is
        now: they share the compiled model and its update ports."""
        if not frequencies_hz:
            return []
        model, ports = self._model(), _PortIndex()
        return [
            FactorizedMna(model, frequency, self._patterns, ports)
            for frequency in frequencies_hz
        ]


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class _Ports(NamedTuple):
    """The update ports of a group of elements that stamp alike
    (:meth:`~repro.spice.acmodel.AcModel.stamp_groups`) on one
    factorization: where deviating each member perturbs the system,
    whatever the deviation, as ``ΔA = u·wᵀ`` with a fixed direction
    ``u``.  Pure data; one array stamp of any member forms the stamp
    deltas of all.

    ``first`` names the member the array stamps run on and ``keys`` are
    its delta positions, in the order :class:`~repro.spice.acmodel.
    _Delta` sums them.  As :meth:`FactorizedMna._factor_delta` returns them, a
    member's direction is ``(tag, *u_rows[m])`` with values ``u_vals``,
    and ``w_cols[m]`` are the columns of its ``w``.  ``take`` and
    ``negate`` say which delta position each ``w`` value is and whether
    it is negated; ``ties`` are the positions that must equal ``signs ×``
    the first ``w`` value for the shape to hold.
    """

    first: str
    keys: tuple[tuple[int, int], ...]
    tag: str
    u_rows: list[list[int]]
    u_vals: list[complex]
    w_cols: np.ndarray
    take: tuple[int, ...]
    negate: tuple[bool, ...]
    ties: list[int]
    signs: np.ndarray


class _PortIndex:
    """The update ports of one compiled model, built by the first of its
    factorizations to run a batch and shared by all of them."""

    def __init__(self) -> None:
        self.ports: list[_Ports] = []
        self.of: dict[str, tuple[int, int]] | None = None


class FactorizedMna:
    """The LU factorization of ``model.system(frequency_hz)``, reusable
    across solves.

    Captures the element values of ``model``; a later edit of a
    component value is *not* seen by this object — ask
    :meth:`MnaSolver.factorized` for a new one instead.
    """

    #: the Sherman–Morrison denominator ``1 + wᵀy`` is declared
    #: ill-conditioned — and the update routed through the dense patched
    #: solve — when its magnitude falls below ``DENOM_RTOL · max(1,
    #: |wᵀy|)``.  The test is *relative* to the update's own scale: an
    #: absolute cutoff would let badly scaled systems (|wᵀy| ≫ 1) take
    #: the cancellation-ridden fast branch, or needlessly reject tiny
    #: but perfectly conditioned updates.
    DENOM_RTOL = 1e-12

    def __init__(
        self,
        model: AcModel,
        frequency_hz: float,
        pattern_cache: dict | None = None,
        ports: _PortIndex | None = None,
    ):
        self.model = model
        self.circuit = model.circuit
        self.frequency_hz = frequency_hz
        system, self._factorization = model.factorize(
            frequency_hz, pattern_cache
        )
        self._rhs = system.rhs
        self._s = laplace(frequency_hz)
        self._size = system.size
        self._base = self._factorization.solve(system.rhs)
        self._base_solution = Solution.of(model, self._base, frequency_hz)
        # y = A⁻¹·u per value-independent update direction u — computing
        # it is the only solve against the factorization a rank-one
        # update needs, and every deviation of the same element reuses
        # the same direction.  Held until release_directions().
        self._ys: dict[tuple, np.ndarray] = {}
        # The update ports of the model, built on the first batch: pure
        # structure of the compile, shared by every batch (and by every
        # factorization of the same model that was handed the index).
        self._ports = _PortIndex() if ports is None else ports

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """Name of the linear-system backend serving this factorization."""
        return self._factorization.backend_name

    def solution(self) -> Solution:
        """The baseline (as-assembled) solution — solved once at
        construction; this is a constant-time accessor."""
        return self._base_solution

    @property
    def cached_directions(self) -> int:
        """How many ``y = A⁻¹·u`` update directions are held now."""
        return len(self._ys)

    def release_directions(self) -> None:
        """Drop every cached update direction ``y = A⁻¹·u``.

        :meth:`deviation_batch` keeps each fixed direction it solves, so
        later batches at this frequency reuse it.  On a large circuit
        that is one vector of the system's size per element; a caller
        that keeps the factorization across independent batches of work
        (the shards of a campaign) releases them between, which also
        makes each batch's gains independent of the batches before it.
        """
        self._ys.clear()

    # ------------------------------------------------------------------
    def _stamp_delta(
        self, element: str, deviation: float
    ) -> tuple[dict[tuple[int, int], complex], bool] | None:
        """The matrix perturbation of deviating one element.

        Returns ``(entries, rhs_touched)``, or ``None`` when the deviated
        stamp equals the baseline stamp (e.g. a capacitor at DC).
        """
        circuit = self.circuit
        component = circuit.component(element)
        if not component.has_value:
            raise AnalogError(
                f"component {element!r} carries no value to deviate"
            )
        delta, rhs_touched = self.model.stamp_delta(
            component,
            self._s,
            circuit.nominal_value(element) * (1.0 + deviation),
        )
        entries = {key: value for key, value in delta.items() if value != 0.0}
        if not entries and not rhs_touched:
            return None
        return entries, rhs_touched

    def _patched_solve(
        self, entries: dict[tuple[int, int], complex]
    ) -> np.ndarray:
        """Fallback: solve the explicitly patched matrix from scratch."""
        try:
            return self._factorization.solve_patched(entries, self._rhs)
        except SingularSystemError as exc:
            raise AnalogError(
                f"singular deviated MNA system for "
                f"{self.circuit.name!r} at {self.frequency_hz} Hz: "
                f"{exc}"
            ) from exc

    def _factor_delta(
        self, entries: dict[tuple[int, int], complex]
    ) -> tuple[tuple | None, list[int], list[complex], list[int], list[complex]] | None:
        """Factor a stamp delta as an outer product ``ΔA = u·wᵀ``.

        Returns ``(u_key, u_rows, u_vals, w_cols, w_vals)`` with sparse
        ``u``/``w`` representations; ``u_key`` is a hashable cache key
        for ``y = A⁻¹·u`` when the direction ``u`` does not depend on
        the deviated value (single-row patches and ±admittance
        patterns), else ``None``.  Returns ``None`` for any other shape;
        the caller then solves the patched matrix densely.
        """
        rows = sorted({row for row, _ in entries})
        cols = sorted({col for _, col in entries})
        if len(rows) == 1:
            # One matrix row changes (VCVS gain, op-amp gain, L value):
            # ΔA = e_r · (delta row)ᵀ with a fixed direction e_r.
            row = rows[0]
            return (
                ("row", row),
                [row],
                [1.0 + 0.0j],
                cols,
                [entries[(row, col)] for col in cols],
            )
        if len(cols) == 1:
            # One column changes: u carries the (value-dependent)
            # entries, w is the fixed indicator of that column.
            col = cols[0]
            return (
                None,
                rows,
                [entries[(row, col)] for row in rows],
                [col],
                [1.0 + 0.0j],
            )
        if len(rows) == 2 and len(cols) == 2:
            # The two-terminal admittance / VCCS pattern
            # Δy·[[+1,−1],[−1,+1]]: u = e_i − e_j is value independent.
            corner = entries.get((rows[0], cols[0]), 0.0)
            if (
                corner != 0.0
                and entries.get((rows[0], cols[1]), 0.0) == -corner
                and entries.get((rows[1], cols[0]), 0.0) == -corner
                and entries.get((rows[1], cols[1]), 0.0) == corner
            ):
                return (
                    ("diff", rows[0], rows[1]),
                    rows,
                    [1.0 + 0.0j, -1.0 + 0.0j],
                    cols,
                    [corner, -corner],
                )
        return None

    def solve_stats(self) -> dict:
        """Solve-counter diagnostics of the underlying factorization.

        ``solve_calls`` counts single-RHS solves,
        ``multi_rhs_solves``/``multi_rhs_columns`` the batched
        :meth:`deviation_batch` traffic (one multi-RHS call per batch,
        however many distinct update directions it carries).
        """
        return self._factorization.stats()

    def _port_index(self) -> dict[str, tuple[int, int]]:
        """Each ported element's ``(group, member)`` in the model's
        ports, built from the compile's record on first use.

        A group's first member's compiled stamp, summed per position, is
        classified by :meth:`_factor_delta` as a fault's delta is; the
        members compare alike, so the same entries play the same parts
        in theirs.  Only shapes with a fixed direction ``u`` get ports;
        every other element's faults take the per-fault route.
        """
        index = self._ports
        if index.of is not None:
            return index.of
        index.of = {}
        for names, rows, cols, values in self.model.stamp_groups():
            first_rows, first_cols = rows[0].tolist(), cols[0].tolist()
            slot_of: dict[tuple[int, int], int] = {}
            compiled: dict[tuple[int, int], complex] = {}
            for key, value in zip(zip(first_rows, first_cols), values):
                slot_of.setdefault(key, len(slot_of))
                compiled[key] = compiled.get(key, 0.0) + value
            factors = self._factor_delta(compiled)
            if factors is None or factors[0] is None:
                continue
            u_key, u_rows, u_vals, w_cols, _ = factors
            if u_key[0] == "row":
                take = tuple(slot_of[(u_rows[0], col)] for col in w_cols)
                negate: tuple[bool, ...] = (False,) * len(take)
                ties, signs = [], []
            else:  # ("diff", r0, r1): w = (corner, −corner)
                (r0, r1), (c0, c1) = u_rows, w_cols
                take = (slot_of[(r0, c0)],) * 2
                negate = (False, True)
                ties = [
                    slot_of[(r0, c1)], slot_of[(r1, c0)], slot_of[(r1, c1)]
                ]
                signs = [-1.0, -1.0, 1.0]
            group = len(index.ports)
            index.ports.append(_Ports(
                names[0],
                tuple(slot_of),
                u_key[0],
                rows[:, [first_rows.index(row) for row in u_rows]].tolist(),
                u_vals,
                cols[:, [first_cols.index(col) for col in w_cols]],
                take,
                negate,
                ties,
                np.array(signs)[:, None],
            ))
            for member, name in enumerate(names):
                index.of[name] = (group, member)
        return index.of

    def deviation_batch(self, faults, node: str) -> np.ndarray:
        """Observed-node voltages for a whole batch of deviations.

        ``faults`` is a sequence of ``(element, deviation)`` pairs, each
        ``deviation`` relative to the element's *nominal* value (as in
        every deviation state, :meth:`repro.spice.AnalogCircuit.
        deviation_state`);
        entry ``i`` of the returned complex array is ``node``'s voltage
        with element ``i`` alone deviated.  Since ``ΔA = u·wᵀ``,

            (A + u·wᵀ)⁻¹·b  =  x₀ − y · (wᵀ·x₀) / (1 + wᵀ·y)

        with ``x₀ = A⁻¹·b`` already solved and ``y = A⁻¹·u``, executed
        as array-level linear algebra over the full batch:

        1. every fault's stamp delta is factored ``ΔA = u·wᵀ``.  The
           faults of a resistor, capacitor or VCCS with a fixed direction
           (an update *port*, :meth:`_port_index`) are grouped by the
           shape of their stamp: one array stamp of the component type
           forms the deltas of a whole group, and masks check what
           :meth:`_factor_delta` would (every entry nonzero, the
           ±admittance corners).  Every other fault — an ``Inductor``,
           ``VCVS``, ``FiniteOpAmp`` or subclass, a single-column
           (value-dependent ``u``) shape, or a fault a mask rejects — is
           stamped and factored on its own;
        2. every *distinct* update direction ``u`` not already in the
           per-direction ``y = A⁻¹u`` cache becomes one column of a
           single matrix handed to one
           :meth:`~repro.spice.backends.LinearFactorization.solve_many`
           call, in the order the batch first uses it (fixed directions
           feed the cache, so later batches at this frequency reuse the
           triangular solves);
        3. denominators ``1 + wᵀy``, scales ``wᵀx₀ / (1 + wᵀy)`` and
           the observed-node voltages are formed as vectorized numpy
           expressions over the batch.

        Both routes compute a fault's delta with the same operations, so
        a voltage does not depend on the route its fault took.  A gain
        can differ in the last ulp with the batch it is computed in; the
        reference against which the kernel is tested is a fresh
        :class:`MnaSolver` solve of the deviated circuit.  Only deltas
        in a shape :meth:`_factor_delta` does not recognize and updates
        failing the relative conditioning test (:data:`DENOM_RTOL`) drop
        out of the batch, through a per-fault dense patched solve.
        Deviations whose stamp equals the baseline return the baseline
        voltage.  A deviation of −1 or below raises :class:`AnalogError`
        naming its element before anything is stamped.  The circuit is
        never mutated.
        """
        # --- group the faults by element, ported elements by group ----
        # A deviation of −100 % or below would stamp a non-positive
        # element value: refused here, before anything is stamped, as
        # deviation_state refuses it.
        by_element: dict[str, list[int]] = {}
        for i, (element, deviation) in enumerate(faults):
            if deviation <= -1.0:
                raise AnalogError(
                    f"deviation {deviation} would make {element!r} "
                    "non-positive"
                )
            by_element.setdefault(element, []).append(i)
        if node == GROUND:
            return np.zeros(len(faults), dtype=complex)
        try:
            index = self.model.node_index[node]
        except KeyError:
            raise AnalogError(f"no node named {node!r} in solution") from None
        voltages = np.empty(len(faults), dtype=complex)
        base_at_node = complex(self._base[index])
        model, circuit = self.model, self.circuit

        port_of = self._port_index()
        groups: dict[int, list[str]] = {}
        one_by_one: list[int] = []
        for element, at in by_element.items():
            where = port_of.get(element)
            if where is None:
                one_by_one.extend(at)
            else:
                groups.setdefault(where[0], []).append(element)
        # An array stamp costs more than one per-fault stamp: a group
        # the batch gives a single fault takes the per-fault route.
        for group, elements in list(groups.items()):
            if len(elements) == 1 and len(by_element[elements[0]]) == 1:
                one_by_one += by_element[elements[0]]
                del groups[group]

        # Distinct update directions: fixed ones keyed by their ``_ys``
        # cache key, so the batch both reuses and feeds the cache;
        # value-dependent ones by content.
        # ``first_use`` is the first fault of the batch that uses each.
        direction_of: dict[tuple, int] = {}
        directions: list[tuple] = []  # (u_rows, u_vals, cache key)
        first_use: list[int] = []

        def direction(ident, u_key, u_rows, u_vals, fault) -> int:
            number = direction_of.get(ident)
            if number is None:
                number = direction_of[ident] = len(directions)
                directions.append((u_rows, u_vals, u_key))
                first_use.append(fault)
            elif fault < first_use[number]:
                first_use[number] = fault
            return number

        # Sherman–Morrison slots, one per batched fault (its index and
        # direction), plus the flattened ragged wᵀ entries addressing
        # them, in chunks.
        sm_fault: list[np.ndarray] = []
        sm_direction: list[np.ndarray] = []
        w_slot: list[np.ndarray] = []
        w_col: list[np.ndarray] = []
        w_val: list[np.ndarray] = []
        n_slots = 0

        # --- ported faults: one array stamp per group ----------------
        if groups:
            deviations = np.array([d for _, d in faults], dtype=float)
        for group, elements in groups.items():
            ports = self._ports.ports[group]
            members = [port_of[element][1] for element in elements]
            counts = [len(by_element[element]) for element in elements]
            at = np.concatenate([by_element[element] for element in elements])
            nominal, baseline = model.element_values(elements)
            # A zero value raises, as it does in a per-fault stamp.
            with np.errstate(divide="raise"):
                entries, rhs_touched = model.stamp_delta(
                    circuit.component(ports.first),
                    self._s,
                    np.repeat(nominal, counts) * (1.0 + deviations[at]),
                    np.repeat(baseline, counts),
                )
            if not entries and not rhs_touched:
                voltages[at] = base_at_node  # e.g. a capacitor at DC
                continue
            if rhs_touched or tuple(entries) != ports.keys:
                one_by_one.extend(at.tolist())
                continue
            delta = np.array(list(entries.values()))
            fits = (delta != 0.0).all(axis=0)
            if ports.ties:
                fits &= (
                    delta[ports.ties] == ports.signs * delta[ports.take[0]]
                ).all(axis=0)
            member_of = np.repeat(members, counts)
            if not fits.all():
                one_by_one.extend(at[~fits].tolist())
                at, member_of = at[fits], member_of[fits]
                delta = delta[:, fits]
            if not len(at):
                continue
            # Each element's faults are one run of ``at``, in batch order.
            numbers = np.empty(len(ports.u_rows), dtype=np.intp)
            runs = np.flatnonzero(
                np.concatenate([[True], member_of[1:] != member_of[:-1]])
            )
            for member, i in zip(member_of[runs].tolist(), at[runs].tolist()):
                u_rows = ports.u_rows[member]
                u_key = (ports.tag, *u_rows)
                numbers[member] = direction(
                    u_key, u_key, u_rows, ports.u_vals, i
                )
            sm_fault.append(at)
            sm_direction.append(numbers[member_of])
            slots = np.arange(n_slots, n_slots + len(at))
            cols = ports.w_cols[member_of]
            # wᵀ in column order: the delta entry of each w value,
            # negated where _factor_delta negates it, then made complex.
            for k, (slot, negated) in enumerate(zip(ports.take, ports.negate)):
                w_slot.append(slots)
                w_col.append(cols[:, k])
                w_val.append(
                    (-delta[slot] if negated else delta[slot]).astype(complex)
                )
            n_slots += len(at)

        # --- every other fault: stamped and factored on its own --------
        fallback: list[tuple[int, dict]] = []  # unrecognized shapes
        one_fault: list[int] = []
        one_direction: list[int] = []
        one_slot: list[int] = []
        one_col: list[int] = []
        one_val: list[complex] = []
        for i in sorted(one_by_one):
            element, deviation = faults[i]
            delta = self._stamp_delta(element, deviation)
            if delta is None:
                voltages[i] = base_at_node
                continue
            entries, rhs_touched = delta
            if rhs_touched:
                raise AnalogError(
                    f"component {element!r} stamps the right-hand side; "
                    "cannot patch the factorized system"
                )
            factors = self._factor_delta(entries)
            if factors is None:
                fallback.append((i, entries))
                continue
            u_key, u_rows, u_vals, w_cols, w_vals = factors
            ident = (
                u_key
                if u_key is not None
                else ("value", tuple(u_rows), tuple(u_vals))
            )
            slot = n_slots + len(one_fault)
            one_fault.append(i)
            one_direction.append(direction(ident, u_key, u_rows, u_vals, i))
            for col, val in zip(w_cols, w_vals):
                one_slot.append(slot)
                one_col.append(col)
                one_val.append(val)
        if one_fault:
            sm_fault.append(np.asarray(one_fault, dtype=np.intp))
            sm_direction.append(np.asarray(one_direction, dtype=np.intp))
            w_slot.append(np.asarray(one_slot, dtype=np.intp))
            w_col.append(np.asarray(one_col, dtype=np.intp))
            w_val.append(np.asarray(one_val, dtype=complex))
            n_slots += len(one_fault)

        if n_slots:
            fault_of_slot = _joined(sm_fault)
            # One column per direction, in the order the batch first
            # uses it (the per-fault route registers them in that order).
            column_of_slot = _joined(sm_direction)
            columns = directions
            if groups:
                order = sorted(
                    range(len(directions)), key=first_use.__getitem__
                )
                columns = [directions[j] for j in order]
                column_of = np.empty(len(order), dtype=np.intp)
                column_of[order] = np.arange(len(order))
                column_of_slot = column_of[column_of_slot]
            column_ys = [
                None if key is None else self._ys.get(key)
                for _, _, key in columns
            ]

            # --- one multi-RHS solve covers every uncached direction --
            # The sparse directions are scattered straight into one RHS
            # block, and the solve lands in a column-major matrix whose
            # column views double as the cached per-direction ``y``
            # vectors — no per-column densify/copy/re-stack round trips.
            missing = [j for j, y in enumerate(column_ys) if y is None]
            solved = None
            if missing:
                block = np.zeros((self._size, len(missing)), dtype=complex)
                at_rows: list[int] = []
                at_cols: list[int] = []
                at_vals: list[complex] = []
                for k, j in enumerate(missing):
                    u_rows, u_vals, _ = columns[j]
                    at_rows += u_rows
                    at_cols += [k] * len(u_rows)
                    at_vals += u_vals
                block[at_rows, at_cols] = at_vals
                solved = np.asfortranarray(
                    self._factorization.solve_many(block)
                )
                # Free the right-hand sides before the update scalars are
                # formed: held on, a block of this size fragments the
                # heap under the batch's smaller arrays (peak RSS rose by
                # 3 MB in some ladder runs).
                del block
                for k, j in enumerate(missing):
                    column_ys[j] = solved[:, k]
                    key = columns[j][2]
                    if key is not None:
                        self._ys[key] = column_ys[j]

            # --- vectorized Sherman–Morrison over the whole batch -----
            if len(missing) == len(column_ys):
                ys = solved  # every direction is a fresh solve column
            else:
                ys = np.empty(
                    (self._size, len(column_ys)), dtype=complex, order="F"
                )
                for j, y in enumerate(column_ys):
                    ys[:, j] = y
            slots, cols, vals = _joined(w_slot), _joined(w_col), _joined(w_val)
            # np.add.at accumulates each fault's wᵀ terms in column
            # order.
            terms_y = vals * ys[cols, column_of_slot[slots]]
            terms_x = vals * self._base[cols]
            w_dot_y = np.zeros(n_slots, dtype=complex)
            w_dot_x = np.zeros(n_slots, dtype=complex)
            np.add.at(w_dot_y, slots, terms_y)
            np.add.at(w_dot_x, slots, terms_x)
            denominator = 1.0 + w_dot_y
            ill = np.abs(denominator) < self.DENOM_RTOL * np.maximum(
                1.0, np.abs(w_dot_y)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = w_dot_x / denominator
            voltages[fault_of_slot] = (
                base_at_node - ys[index, column_of_slot] * scale
            )
            for slot in np.nonzero(ill)[0].tolist():
                entries, _ = self._stamp_delta(*faults[fault_of_slot[slot]])
                voltages[fault_of_slot[slot]] = complex(
                    self._patched_solve(entries)[index]
                )

        # --- unrecognized shapes: the same dense fallback, per fault --
        for i, entries in fallback:
            voltages[i] = complex(self._patched_solve(entries)[index])
        return voltages
