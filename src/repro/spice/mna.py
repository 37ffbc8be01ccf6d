"""Modified nodal analysis assembly and solve.

One :class:`MnaSolver` instance per circuit; each ``solve`` call assembles
the complex MNA matrix at the requested frequency using the circuit's
*effective* element values (nominal × (1+deviation)) and solves it with
LAPACK via numpy.  Singular systems (floating nodes, contradictory
sources) raise :class:`repro.spice.netlist.AnalogError` with the node map
attached to keep debugging sane.

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
  perturbation that is not rank one, or an ill-conditioned update,
  falls back to a dense solve of the patched matrix.

The solver caches no factorization: each :meth:`MnaSolver.factorized`
call assembles and factors the circuit as it is at that moment, and the
caller owns the result.  With ``MnaSolver(circuit, source=name)`` every
assembly drives that voltage source at unit amplitude, so the solution
*is* the transfer function and the circuit is only read.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .backends import (
    AssembledSystem,
    LinearSystemBackend,
    SingularSystemError,
    SystemAssembler,
    resolve_backend,
)
from .components import StampContext, VoltageSource
from .netlist import GROUND, AnalogCircuit, AnalogError

__all__ = ["MnaSolver", "FactorizedMna", "Solution", "unit_driven"]


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


class MnaSolver:
    """Assemble-and-solve wrapper around one :class:`AnalogCircuit`.

    ``backend`` selects the linear-system engine — ``"dense"`` (LAPACK
    LU), ``"sparse"`` (CSC + SuperLU with symbolic-pattern reuse), or
    ``"auto"`` (sparse at/above
    :data:`repro.spice.backends.SPARSE_AUTO_THRESHOLD` nodes); a
    ready-made :class:`repro.spice.backends.LinearSystemBackend`
    instance is accepted too.  With ``source`` set, every assembly
    drives that voltage source at unit amplitude (:func:`unit_driven`)
    without touching the circuit.
    """

    #: conductance added from every node to ground; keeps matrices
    #: non-singular for nodes isolated at DC (e.g. between two capacitors)
    #: without measurably perturbing kilo-ohm scale circuits.
    GMIN = 1.0e-12

    def __init__(
        self,
        circuit: AnalogCircuit,
        backend: str | LinearSystemBackend = "auto",
        source: str | None = None,
    ):
        unit_driven(circuit, source)  # validates the source name
        self.circuit = circuit
        self.source = source
        self._node_index = {
            node: index for index, node in enumerate(circuit.nodes())
        }
        self.backend = resolve_backend(backend, n_nodes=len(self._node_index))
        #: caller-owned symbolic-pattern cache the sparse backend reuses
        #: across frequencies and deviation states (same topology ⇒ same
        #: sparsity structure).
        self._patterns: dict[bytes, object] = {}

    def _assemble(
        self, frequency_hz: float
    ) -> tuple[AssembledSystem, SystemAssembler, complex]:
        """Assemble the MNA system at one frequency (COO triplet form)."""
        s = 2j * math.pi * frequency_hz if frequency_hz else 0.0
        assembler = SystemAssembler(self._node_index, dtype=complex)
        for component in unit_driven(self.circuit, self.source):
            value = (
                self.circuit.effective_value(component.name)
                if component.has_value
                else 0.0
            )
            component.stamp(assembler, s, value)
        if assembler.size == 0:
            raise AnalogError(f"circuit {self.circuit.name!r} is empty")
        return assembler.finish(gmin=self.GMIN), assembler, s

    def _solution(
        self, vector: np.ndarray, branch_rows: dict[str, int], frequency_hz: float
    ) -> Solution:
        """Wrap a solved unknown vector into a :class:`Solution`."""
        voltages = {
            node: complex(vector[index])
            for node, index in self._node_index.items()
        }
        currents = {
            tag: complex(vector[row]) for tag, row in branch_rows.items()
        }
        return Solution(voltages, currents, frequency_hz)

    def solve(self, frequency_hz: float) -> Solution:
        """Solve at one frequency; ``0.0`` selects the DC system."""
        system, assembler, _ = self._assemble(frequency_hz)
        try:
            solution = self.backend.solve_once(system, self._patterns)
        except SingularSystemError as exc:
            raise AnalogError(
                f"singular MNA system for {self.circuit.name!r} at "
                f"{frequency_hz} Hz: {exc}"
            ) from exc
        return self._solution(solution, assembler.branch_rows, frequency_hz)

    def solve_dc(self) -> Solution:
        """Convenience alias for ``solve(0.0)``."""
        return self.solve(0.0)

    def factorized(self, frequency_hz: float) -> "FactorizedMna":
        """A fresh LU factorization of the system at one frequency.

        Assembled from the circuit as it is now (element values and
        deviation state).  The solver keeps no factorization: a caller
        that reuses one holds on to it, as the campaign engine does
        with one per stimulus frequency.
        """
        return FactorizedMna(self, frequency_hz)


class _DeltaAssembler(StampContext):
    """Stamp collector for the *difference* of two component stampings.

    Shares the node map and the branch rows of the original assembly, so
    the collected entries address the factorized matrix directly.  Used
    by :meth:`FactorizedMna.deviation_batch` with ``sign = -1`` for the
    baseline stamp and ``sign = +1`` for the deviated stamp.
    """

    def __init__(self, node_index: dict[str, int], branch_rows: dict[str, int]):
        self._node_index = node_index
        self._branch_rows = branch_rows
        self.sign = 1.0
        self.entries: dict[tuple[int, int], complex] = {}
        self.rhs_touched = False

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
                f"component {tag!r} allocated no branch in the factorized "
                "system; re-factorize instead of patching"
            ) from None

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        key = (row, col)
        self.entries[key] = self.entries.get(key, 0.0) + self.sign * value

    def rhs(self, row: int | None, value: complex) -> None:
        if row is None:
            return
        # Value-carrying components never stamp the right-hand side; a
        # component that does cannot be patched with a matrix-only
        # update, so flag it and let the caller fall back.
        self.rhs_touched = True


class FactorizedMna:
    """One assembled-and-LU-factored MNA system, reusable across solves.

    Captures the circuit state (frequency, element values, deviations) at
    construction time; later mutations of the circuit are *not* seen by
    this object — ask :meth:`MnaSolver.factorized` for a new one instead.
    """

    #: singular values below ``RANK_TOL · σ₁`` are treated as zero when
    #: deciding whether a stamp perturbation is rank one.
    RANK_TOL = 1e-12

    #: the Sherman–Morrison denominator ``1 + wᵀy`` is declared
    #: ill-conditioned — and the update routed through the dense patched
    #: solve — when its magnitude falls below ``DENOM_RTOL · max(1,
    #: |wᵀy|)``.  The test is *relative* to the update's own scale: an
    #: absolute cutoff would let badly scaled systems (|wᵀy| ≫ 1) take
    #: the cancellation-ridden fast branch, or needlessly reject tiny
    #: but perfectly conditioned updates.
    DENOM_RTOL = 1e-12

    def __init__(self, solver: MnaSolver, frequency_hz: float):
        self.solver = solver
        self.frequency_hz = frequency_hz
        system, assembler, s = solver._assemble(frequency_hz)
        self._rhs = system.rhs
        self._s = s
        self._branch_rows = assembler.branch_rows
        self._size = system.size
        try:
            self._factorization = solver.backend.factorize(
                system, solver._patterns
            )
        except SingularSystemError as exc:
            raise AnalogError(
                f"singular MNA system for {solver.circuit.name!r} at "
                f"{frequency_hz} Hz: {exc}"
            ) from exc
        self._base = self._factorization.solve(system.rhs)
        self._base_solution = solver._solution(
            self._base, self._branch_rows, frequency_hz
        )
        # Effective element values the matrix was assembled with; the
        # reference point for every rank-one deviation patch.
        self._base_values = {
            name: solver.circuit.effective_value(name)
            for name in solver.circuit.element_names()
        }
        # y = A⁻¹·u per value-independent update direction u — computing
        # it is the only triangular solve a rank-one update needs, and
        # every deviation of the same element reuses the same direction.
        self._ys: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """Name of the linear-system backend serving this factorization."""
        return self._factorization.backend_name

    def solution(self) -> Solution:
        """The baseline (as-assembled) solution — two triangular solves
        already paid; this is a constant-time accessor."""
        return self._base_solution

    # ------------------------------------------------------------------
    def _stamp_delta(
        self, element: str, deviation: float
    ) -> tuple[dict[tuple[int, int], complex], bool] | None:
        """The matrix perturbation of deviating one element.

        Returns ``(entries, rhs_touched)``, or ``None`` when the deviated
        stamp equals the baseline stamp (e.g. a capacitor at DC).
        """
        circuit = self.solver.circuit
        component = circuit.component(element)
        if not component.has_value:
            raise AnalogError(
                f"component {element!r} carries no value to deviate"
            )
        base_value = self._base_values[element]
        new_value = circuit.nominal_value(element) * (1.0 + deviation)
        delta = _DeltaAssembler(self.solver._node_index, self._branch_rows)
        delta.sign = -1.0
        component.stamp(delta, self._s, base_value)
        delta.sign = +1.0
        component.stamp(delta, self._s, new_value)
        entries = {
            key: value for key, value in delta.entries.items() if value != 0.0
        }
        if not entries and not delta.rhs_touched:
            return None
        return entries, delta.rhs_touched

    def _patched_solve(
        self, entries: dict[tuple[int, int], complex]
    ) -> np.ndarray:
        """Fallback: solve the explicitly patched matrix from scratch."""
        try:
            return self._factorization.solve_patched(entries, self._rhs)
        except SingularSystemError as exc:
            raise AnalogError(
                f"singular deviated MNA system for "
                f"{self.solver.circuit.name!r} at {self.frequency_hz} Hz: "
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
        patterns), else ``None``.  Returns ``None`` when the delta is
        not recognizably rank one (caller decides via SVD).
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

    def _factor_delta_svd(
        self, entries: dict[tuple[int, int], complex]
    ) -> tuple[None, list[int], list[complex], list[int], list[complex]] | None:
        """SVD fallback of :meth:`_factor_delta` for unrecognized shapes;
        ``None`` when the delta is genuinely not rank one."""
        rows = sorted({row for row, _ in entries})
        cols = sorted({col for _, col in entries})
        block = np.zeros((len(rows), len(cols)), dtype=complex)
        row_pos = {row: i for i, row in enumerate(rows)}
        col_pos = {col: j for j, col in enumerate(cols)}
        for (row, col), value in entries.items():
            block[row_pos[row], col_pos[col]] = value
        u_left, singulars, v_right = np.linalg.svd(block)
        if singulars.size > 1 and singulars[1] > self.RANK_TOL * singulars[0]:
            return None
        return (
            None,
            rows,
            list(u_left[:, 0] * singulars[0]),
            cols,
            list(v_right[0, :]),
        )

    def solve_stats(self) -> dict:
        """Solve-counter diagnostics of the underlying factorization.

        ``solve_calls`` counts single-RHS triangular solves,
        ``multi_rhs_solves``/``multi_rhs_columns`` the batched
        :meth:`deviation_batch` traffic (one multi-RHS call per batch,
        however many distinct update directions it carries).
        """
        return self._factorization.stats()

    def deviation_batch(self, faults, node: str) -> np.ndarray:
        """Observed-node voltages for a whole batch of deviations.

        ``faults`` is a sequence of ``(element, deviation)`` pairs, each
        ``deviation`` relative to the element's *nominal* value (the
        :meth:`repro.spice.AnalogCircuit.set_deviation` convention);
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
        :class:`MnaSolver` solve of the deviated circuit.  Only
        genuinely rank-≥2 deltas and updates failing the relative
        conditioning test (:data:`DENOM_RTOL`) drop out of the batch,
        through a per-fault dense patched solve.  Deviations whose
        stamp equals the baseline return the baseline voltage.  The
        circuit is never mutated.
        """
        if node == GROUND:
            return np.zeros(len(faults), dtype=complex)
        try:
            index = self.solver._node_index[node]
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
        fallback: list[tuple[int, dict]] = []  # genuinely rank ≥ 2

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
                factors = self._factor_delta_svd(entries)
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

        # --- rank-≥2 leftovers: the same dense fallback, per fault ----
        for i, entries in fallback:
            voltages[i] = complex(self._patched_solve(entries)[index])
        return voltages
