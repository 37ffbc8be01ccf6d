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
  rank-one patch of the matrix).  Every distinct update direction is
  solved in a single multi-RHS backend call and the update scalars are
  evaluated as vectorized numpy expressions over the batch; a
  perturbation whose shape is not a recognized rank-one pattern, or an
  ill-conditioned update, falls back to a dense solve of the patched
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
        stimulus frequency.
        """
        return FactorizedMna(self._model(), frequency_hz, self._patterns)


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
        # the same direction.
        self._ys: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """Name of the linear-system backend serving this factorization."""
        return self._factorization.backend_name

    def solution(self) -> Solution:
        """The baseline (as-assembled) solution — solved once at
        construction; this is a constant-time accessor."""
        return self._base_solution

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

        1. every fault's stamp delta is factored ``ΔA = u·wᵀ``;
        2. every *distinct* update direction ``u`` not already in the
           per-direction ``y = A⁻¹u`` cache becomes one column of a
           single matrix handed to one
           :meth:`~repro.spice.backends.LinearFactorization.solve_many`
           call (fixed directions feed the cache, so later batches at
           this frequency reuse the triangular solves);
        3. denominators ``1 + wᵀy``, scales ``wᵀx₀ / (1 + wᵀy)`` and
           the observed-node voltages are formed as vectorized numpy
           expressions over the batch.

        A gain can differ in the last ulp with the batch it is computed
        in; the reference against which the kernel is tested is a fresh
        :class:`MnaSolver` solve of the deviated circuit.  Only deltas
        in a shape :meth:`_factor_delta` does not recognize and updates
        failing the relative conditioning test (:data:`DENOM_RTOL`) drop
        out of the batch, through a per-fault dense patched solve.  Deviations whose
        stamp equals the baseline return the baseline voltage.  The
        circuit is never mutated.
        """
        if node == GROUND:
            return np.zeros(len(faults), dtype=complex)
        try:
            index = self.model.node_index[node]
        except KeyError:
            raise AnalogError(f"no node named {node!r} in solution") from None
        voltages = np.empty(len(faults), dtype=complex)
        base_at_node = complex(self._base[index])

        # --- classify faults, collecting distinct update directions ---
        # Fixed (value-independent) directions are keyed by their
        # ``_ys`` cache key so the batch both reuses and feeds the
        # per-direction cache; value-dependent directions by content.
        columns: list[tuple] = []  # sparse directions: (u_rows, u_vals)
        column_ys: list[np.ndarray | None] = []
        column_cache_keys: list[tuple | None] = []
        column_of: dict[tuple, int] = {}
        # Sherman–Morrison slots (parallel lists, one per batched fault)
        # plus the flattened ragged wᵀ entries addressing them.
        sm_fault: list[int] = []
        sm_column: list[int] = []
        sm_entries: list[dict] = []
        w_slot: list[int] = []
        w_col: list[int] = []
        w_val: list[complex] = []
        fallback: list[tuple[int, dict]] = []  # unrecognized shapes

        for i, (element, deviation) in enumerate(faults):
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
            position = column_of.get(ident)
            if position is None:
                position = len(columns)
                column_of[ident] = position
                columns.append((u_rows, u_vals))
                column_cache_keys.append(u_key)
                column_ys.append(
                    None if u_key is None else self._ys.get(u_key)
                )
            slot = len(sm_fault)
            sm_fault.append(i)
            sm_column.append(position)
            sm_entries.append(entries)
            for col, val in zip(w_cols, w_vals):
                w_slot.append(slot)
                w_col.append(col)
                w_val.append(val)

        # --- one multi-RHS solve covers every uncached direction ------
        # The sparse directions are scattered straight into one RHS
        # block, and the solve lands in a column-major matrix whose
        # column views double as the cached per-direction ``y`` vectors
        # — no per-column densify/copy/re-stack round trips.
        missing = [j for j, y in enumerate(column_ys) if y is None]
        solved = None
        if missing:
            block = np.zeros((self._size, len(missing)), dtype=complex)
            for k, j in enumerate(missing):
                u_rows, u_vals = columns[j]
                block[u_rows, k] = u_vals
            solved = np.asfortranarray(self._factorization.solve_many(block))
            for k, j in enumerate(missing):
                column_ys[j] = solved[:, k]
                key = column_cache_keys[j]
                if key is not None:
                    self._ys[key] = column_ys[j]

        # --- vectorized Sherman–Morrison over the whole batch ---------
        if sm_fault:
            if len(missing) == len(column_ys):
                ys = solved  # every direction is a fresh solve column
            else:
                ys = np.empty(
                    (self._size, len(column_ys)), dtype=complex, order="F"
                )
                for j, y in enumerate(column_ys):
                    ys[:, j] = y
            fault_of_slot = np.asarray(sm_fault, dtype=np.intp)
            column_of_slot = np.asarray(sm_column, dtype=np.intp)
            slots = np.asarray(w_slot, dtype=np.intp)
            cols = np.asarray(w_col, dtype=np.intp)
            vals = np.asarray(w_val, dtype=complex)
            # np.add.at accumulates each fault's wᵀ terms in entry
            # order.
            terms_y = vals * ys[cols, column_of_slot[slots]]
            terms_x = vals * self._base[cols]
            w_dot_y = np.zeros(len(sm_fault), dtype=complex)
            w_dot_x = np.zeros(len(sm_fault), dtype=complex)
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
            for slot in np.nonzero(ill)[0]:
                voltages[sm_fault[slot]] = complex(
                    self._patched_solve(sm_entries[slot])[index]
                )

        # --- unrecognized shapes: the same dense fallback, per fault --
        for i, entries in fallback:
            voltages[i] = complex(self._patched_solve(entries)[index])
        return voltages
