"""Pluggable linear-system backends for the MNA simulation layer.

Every analysis in :mod:`repro.spice` — DC operating points, AC transfer
sweeps, backward-Euler transient runs, and the fault-campaign deviation
solves — bottoms out in the same primitive: factorize one assembled
linear system ``A·x = b`` and solve it, usually many times.  This module
owns that primitive behind a small protocol so the *analysis* code never
commits to a matrix storage format:

* :class:`SystemAssembler` — a :class:`~repro.spice.components.
  StampContext` that collects triplets; components stamp into it and
  :meth:`SystemAssembler.finish` freezes them into an
  :class:`AssembledSystem` (a storage-agnostic COO description).
* :class:`LinearSystemBackend` — ``factorize(system) ->``
  :class:`LinearFactorization`, with two implementations:

  - :class:`DenseBackend` — the historical path: a dense matrix, its
    pivots checked once at factorization.  Below
    :data:`DENSE_LU_THRESHOLD` unknowns (every paper circuit) the
    factorization keeps the matrix and each solve is a full numpy
    LAPACK ``gesv`` (``np.linalg.solve``), which needs no scipy; from
    there up it keeps scipy ``lu_factor`` factors and each solve is one
    ``getrs``.  Unbeatable below ~100 unknowns, where BLAS-3 density
    wins over index arithmetic.
  - :class:`SparseBackend` — ``scipy.sparse`` CSC + SuperLU ``splu``.
    The *symbolic* work (sorting the stamp triplets, collapsing
    duplicates, building the CSC index structure) is captured once per
    sparsity pattern in a :class:`SparsityPattern` and reused across
    frequencies and timesteps, so a 500-node AC sweep pays the pattern
    analysis once and only re-scatters numeric values per frequency.

  scipy is imported on first use only, by the sparse backend and by
  dense factorizations at or above :data:`DENSE_LU_THRESHOLD` unknowns.
  Every factorization serves single right-hand sides
  (:meth:`LinearFactorization.solve`) and whole stacked blocks of them
  (:meth:`LinearFactorization.solve_many` — one LAPACK ``gesv`` or
  ``getrs`` / SuperLU ``gstrs`` call per block), with per-factorization
  solve counters (:meth:`LinearFactorization.stats`) so batch-scale
  callers like the campaign engine can report how many calls they made.

* :func:`resolve_backend` — maps the user-facing ``"auto" | "dense" |
  "sparse"`` spelling (plus ready-made backend instances) to a backend;
  ``"auto"`` picks sparse at or above :data:`SPARSE_AUTO_THRESHOLD`
  nodes and dense below, so paper-scale circuits keep their historical
  fast path while ladder/mesh-scale circuits scale.

Singular systems surface as :class:`SingularSystemError` from the
backend; callers (``AcModel``, ``TransientSolver``) wrap it into an
:class:`~repro.spice.netlist.AnalogError` carrying circuit context.
"""

from __future__ import annotations

import numpy as np

from .components import StampContext
from .netlist import GROUND, AnalogError

__all__ = [
    "SPARSE_AUTO_THRESHOLD",
    "DENSE_LU_THRESHOLD",
    "SingularSystemError",
    "AssembledSystem",
    "SystemAssembler",
    "SparsityPattern",
    "LinearFactorization",
    "LinearSystemBackend",
    "DenseBackend",
    "SparseBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "resolve_backend",
]

#: node count at or above which ``backend="auto"`` selects the sparse
#: backend.  Dense LAPACK wins comfortably below this (the paper's
#: circuits are < 40 nodes); SuperLU wins well above it.
SPARSE_AUTO_THRESHOLD = 128

#: unknowns at or above which a dense factorization keeps scipy LU
#: factors and re-solves in O(n²), instead of keeping the matrix and
#: solving it in full with numpy's ``gesv`` on every call.  Below it
#: call overhead dominates and the two cost the same within noise; by
#: 48 unknowns the kept factors are 2× faster (2-CPU x86 host).  Every
#: paper circuit has at most 17 unknowns, so none of them loads scipy.
DENSE_LU_THRESHOLD = 24

#: user-facing backend spellings accepted everywhere a backend can be
#: chosen (solver constructors, ``sweep``, ``FactorizedEngine.run``).
BACKEND_NAMES = ("auto", "dense", "sparse")


class SingularSystemError(Exception):
    """The assembled system has no unique solution.

    Raised by backends; analysis layers catch it and re-raise an
    :class:`~repro.spice.netlist.AnalogError` naming the circuit.
    """


class AssembledSystem:
    """One assembled linear system in storage-agnostic triplet form.

    ``entries`` is the raw stamp list ``(row, col, value)``; duplicate
    positions accumulate (the usual stamping convention).  ``rhs`` is
    the dense right-hand side.  Backends decide how to materialize the
    matrix: :meth:`to_dense` fills a dense array directly (no index
    arrays built), while the parallel ``rows``/``cols``/``values``
    arrays the sparse path needs are built lazily on first access.
    """

    def __init__(
        self,
        size: int,
        entries: list[tuple[int, int, complex]],
        rhs: np.ndarray,
        dtype=complex,
    ):
        self.size = size
        self.entries = entries
        self.rhs = rhs
        self.dtype = dtype
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def nnz_entries(self) -> int:
        """Number of stamp entries (before duplicate collapsing)."""
        return len(self.entries)

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            count = len(self.entries)
            rows = np.fromiter(
                (e[0] for e in self.entries), dtype=np.intp, count=count
            )
            cols = np.fromiter(
                (e[1] for e in self.entries), dtype=np.intp, count=count
            )
            values = np.array(
                [e[2] for e in self.entries], dtype=self.dtype
            )
            self._arrays = (rows, cols, values)
        return self._arrays

    @property
    def rows(self) -> np.ndarray:
        return self._coo()[0]

    @property
    def cols(self) -> np.ndarray:
        return self._coo()[1]

    @property
    def values(self) -> np.ndarray:
        return self._coo()[2]

    def structure_key(self) -> bytes:
        """Hashable fingerprint of the sparsity structure (not values).

        Two systems with equal keys have identical entry positions in
        identical order, so a :class:`SparsityPattern` built for one is
        valid for the other — the basis of symbolic reuse across
        frequencies and timesteps.
        """
        rows, cols, _ = self._coo()
        return (
            self.size.to_bytes(8, "little")
            + rows.tobytes()
            + cols.tobytes()
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the dense matrix (accumulating duplicates)."""
        matrix = np.zeros((self.size, self.size), dtype=self.dtype)
        for row, col, value in self.entries:
            matrix[row, col] += value
        return matrix


class SystemAssembler(StampContext):
    """A stamp context that collects triplets from components.

    Shared by the DC/AC compile in ``AcModel`` (whose recorder
    subclasses it) and the companion assembly in ``TransientSolver``,
    so component stamp code exists in exactly one place —
    :mod:`repro.spice.components`.
    """

    def __init__(self, node_index: dict[str, int], dtype=complex):
        self._node_index = node_index
        self._n_nodes = len(node_index)
        self._dtype = dtype
        self._branches: dict[str, int] = {}
        self.entries: list[tuple[int, int, complex]] = []
        self.rhs_entries: list[tuple[int, complex]] = []

    def index(self, node: str) -> int | None:
        if node == GROUND:
            return None
        try:
            return self._node_index[node]
        except KeyError:
            raise AnalogError(f"unknown node {node!r}") from None

    def branch(self, tag: str) -> int:
        if tag in self._branches:
            return self._branches[tag]
        row = self._n_nodes + len(self._branches)
        self._branches[tag] = row
        return row

    def add(self, row: int | None, col: int | None, value: complex) -> None:
        if row is None or col is None:
            return
        self.entries.append((row, col, value))

    def rhs(self, row: int | None, value: complex) -> None:
        if row is None:
            return
        self.rhs_entries.append((row, value))

    @property
    def size(self) -> int:
        return self._n_nodes + len(self._branches)

    @property
    def branch_rows(self) -> dict[str, int]:
        return dict(self._branches)

    def finish(self, gmin: float = 0.0) -> AssembledSystem:
        """Freeze the collected stamps into an :class:`AssembledSystem`.

        ``gmin`` adds a conductance from every *node* row to ground
        (diagonal), the standard trick keeping DC-floating nodes
        non-singular without measurably perturbing kΩ-scale circuits.
        """
        size = self.size
        entries = list(self.entries)
        if gmin:
            entries.extend(
                (index, index, gmin) for index in range(self._n_nodes)
            )
        rhs = np.zeros(size, dtype=self._dtype)
        for row, value in self.rhs_entries:
            rhs[row] += value
        return AssembledSystem(
            size=size, entries=entries, rhs=rhs, dtype=self._dtype
        )


class SparsityPattern:
    """The symbolic CSC structure of one stamp-entry layout.

    Built once per distinct structure (O(nnz·log nnz) lexsort); after
    that, turning a fresh value array into a CSC matrix is a single
    scatter-add — no per-frequency sorting, no duplicate analysis.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        order = np.lexsort((rows, cols))  # by column, then row: CSC order
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
                sorted_cols[1:] != sorted_cols[:-1]
            )
        slot_of_sorted = np.cumsum(first) - 1
        self.size = size
        self.nnz = int(slot_of_sorted[-1]) + 1 if len(order) else 0
        #: entry index (original stamping order) → CSC data slot
        self.scatter = np.empty(len(order), dtype=np.intp)
        self.scatter[order] = slot_of_sorted
        self.indices = sorted_rows[first].astype(np.int32)
        counts = np.bincount(
            sorted_cols[first], minlength=size
        )
        self.indptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int32)

    def csc(self, values: np.ndarray):
        """Scatter a value array into a CSC matrix with this structure."""
        from scipy.sparse import csc_matrix

        data = np.zeros(self.nnz, dtype=values.dtype)
        np.add.at(data, self.scatter, values)
        matrix = csc_matrix(
            (data, self.indices, self.indptr), shape=(self.size, self.size)
        )
        matrix.has_sorted_indices = True
        return matrix


class LinearFactorization:
    """One factorized system, ready for repeated right-hand sides.

    Subclasses implement :meth:`_solve` (one right-hand side) and, when
    the underlying library has a native multi-RHS path, :meth:`_solve_many`
    (a whole matrix of right-hand sides in one call).  What a solve
    reuses is the subclass's choice: stored LU factors, or (for small
    dense systems) only the checked matrix, re-factored by every call.
    The public :meth:`solve`/:meth:`solve_many` wrappers maintain
    diagnostics counters (:meth:`stats`) so campaign-scale callers can
    report how many right-hand sides went through multi-RHS calls.  The
    counters are plain ints — under thread fan-out they are
    approximate, which is fine for diagnostics.
    """

    #: name of the backend that produced this factorization.
    backend_name = "abstract"

    def __init__(self) -> None:
        #: single-RHS solves served (:meth:`solve` calls).
        self.solve_calls = 0
        #: multi-RHS solves served (:meth:`solve_many` calls).
        self.multi_rhs_solves = 0
        #: total right-hand-side columns across all multi-RHS solves.
        self.multi_rhs_columns = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A·x = rhs`` for the factorized ``A``."""
        self.solve_calls += 1
        return self._solve(rhs)

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve ``A·X = B`` for a matrix ``B`` of stacked RHS columns.

        One call, however many columns: the dense backend hands the
        whole block to one LAPACK ``gesv`` (or ``getrs`` on stored LU
        factors); the sparse backend hands it to SuperLU's native
        multi-RHS triangular solve.  The default
        implementation falls back to column-at-a-time :meth:`_solve`,
        so custom factorizations stay correct without overriding.
        """
        self.multi_rhs_solves += 1
        self.multi_rhs_columns += int(rhs_matrix.shape[1])
        return self._solve_many(rhs_matrix)

    def stats(self) -> dict:
        """Solve-counter diagnostics for this factorization."""
        return {
            "solve_calls": self.solve_calls,
            "multi_rhs_solves": self.multi_rhs_solves,
            "multi_rhs_columns": self.multi_rhs_columns,
        }

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        columns = [
            self._solve(rhs_matrix[:, index])
            for index in range(rhs_matrix.shape[1])
        ]
        return np.stack(columns, axis=1) if columns else rhs_matrix.copy()

    def solve_patched(self, entries, rhs: np.ndarray) -> np.ndarray:
        """One-off solve of ``(A + ΔA)·x = rhs``.

        ``entries`` maps ``(row, col) -> delta``.  The fallback path for
        matrix perturbations the rank-one update does not take; not
        factorization-reusing, by design.
        """
        raise NotImplementedError


class LinearSystemBackend:
    """Protocol: turn an :class:`AssembledSystem` into a factorization.

    ``pattern_cache`` (optional, caller-owned dict) lets the sparse
    backend reuse symbolic analysis across systems sharing a sparsity
    structure; the dense backend ignores it.
    """

    name = "abstract"

    def factorize(
        self, system: AssembledSystem, pattern_cache: dict | None = None
    ) -> LinearFactorization:
        raise NotImplementedError

    def solve_once(
        self, system: AssembledSystem, pattern_cache: dict | None = None
    ) -> np.ndarray:
        """One-shot solve of ``A·x = system.rhs``.

        Backends override when a single solve can skip factorization
        bookkeeping; the default routes through :meth:`factorize`.
        """
        return self.factorize(system, pattern_cache).solve(system.rhs)


class _DenseFactorization(LinearFactorization):
    """A dense system below :data:`DENSE_LU_THRESHOLD` unknowns.

    Keeps the matrix, not LU factors: every :meth:`solve` and
    :meth:`solve_many` is one full numpy LAPACK ``gesv`` (an O(n³) LU
    plus its triangular solves) of the kept matrix.  At this size a call
    costs what scipy's factor-once ``getrs`` costs, and it needs no
    scipy.
    """

    backend_name = "dense"

    def __init__(self, matrix: np.ndarray):
        super().__init__()
        self._matrix = matrix
        # The LU's pivots, checked here so a singular system fails at
        # factorization: a zero pivot makes the sign 0, a non-finite
        # entry the log-magnitude.
        with np.errstate(invalid="ignore"):
            sign, log_magnitude = np.linalg.slogdet(matrix)
        if sign == 0 or not np.isfinite(log_magnitude):
            raise SingularSystemError("zero pivot in dense LU factorization")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._matrix, rhs)

    def _solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        # np.linalg.solve takes an (n, k) right-hand side directly: one
        # gesv call over the whole stacked block.
        return np.linalg.solve(self._matrix, rhs_matrix)

    def solve_patched(self, entries, rhs: np.ndarray) -> np.ndarray:
        matrix = self._matrix.copy()
        for (row, col), value in entries.items():
            matrix[row, col] += value
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc


class _DenseLuFactorization(_DenseFactorization):
    """A dense system of :data:`DENSE_LU_THRESHOLD` unknowns or more.

    LU-factored once by scipy's ``lu_factor`` (imported on first use);
    every right-hand side, single or stacked, is then one O(n²) LAPACK
    ``getrs``.  A transient run or a factorized campaign solves the same
    matrix many times, and at this size the factorization dominates.
    """

    def __init__(self, matrix: np.ndarray):
        from scipy.linalg import lu_factor, lu_solve

        LinearFactorization.__init__(self)
        self._matrix = matrix
        self._lu = lu_factor(matrix, check_finite=False)
        self._lu_solve = lu_solve
        diagonal = np.abs(np.diagonal(self._lu[0]))
        if not np.all(np.isfinite(diagonal)) or diagonal.min() == 0.0:
            raise SingularSystemError("zero pivot in dense LU factorization")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu_solve(self._lu, rhs, check_finite=False)

    def _solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        # lu_solve takes an (n, k) right-hand side directly: one getrs
        # call over the whole stacked block.
        return self._lu_solve(self._lu, rhs_matrix, check_finite=False)


class DenseBackend(LinearSystemBackend):
    """Dense LAPACK: the historical path, best for small circuits."""

    name = "dense"

    def factorize(
        self, system: AssembledSystem, pattern_cache: dict | None = None
    ) -> LinearFactorization:
        if system.size >= DENSE_LU_THRESHOLD:
            return _DenseLuFactorization(system.to_dense())
        return _DenseFactorization(system.to_dense())

    def solve_once(
        self, system: AssembledSystem, pattern_cache: dict | None = None
    ) -> np.ndarray:
        # One LAPACK gesv call — the MnaSolver.solve path; a single
        # solve skips the factorization's separate pivot check.
        try:
            return np.linalg.solve(system.to_dense(), system.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc


class _SparseFactorization(LinearFactorization):
    backend_name = "sparse"

    def __init__(self, matrix):
        from scipy.sparse.linalg import splu

        super().__init__()
        self._csc = matrix
        try:
            self._splu = splu(matrix)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        diagonal = np.abs(self._splu.U.diagonal())
        if not np.all(np.isfinite(diagonal)) or diagonal.min() == 0.0:
            raise SingularSystemError("zero pivot in sparse LU factorization")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._splu.solve(rhs)

    def _solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        # SuperLU's gstrs is natively multi-RHS: one C-level call
        # triangular-solves the whole column block.
        return self._splu.solve(rhs_matrix)

    def solve_patched(self, entries, rhs: np.ndarray) -> np.ndarray:
        from scipy.sparse.linalg import splu

        patched = self._csc.tolil(copy=True)
        for (row, col), value in entries.items():
            patched[row, col] += value
        try:
            return splu(patched.tocsc()).solve(rhs)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc


class SparseBackend(LinearSystemBackend):
    """CSC + SuperLU with symbolic-pattern reuse across systems."""

    name = "sparse"

    def factorize(
        self, system: AssembledSystem, pattern_cache: dict | None = None
    ) -> LinearFactorization:
        values = system.values  # float64 (transient) or complex128 (AC/DC)
        if pattern_cache is not None:
            key = system.structure_key()
            pattern = pattern_cache.get(key)
            if pattern is None:
                pattern = SparsityPattern(
                    system.rows, system.cols, system.size
                )
                pattern_cache[key] = pattern
        else:
            pattern = SparsityPattern(system.rows, system.cols, system.size)
        return _SparseFactorization(pattern.csc(values))


#: shared, stateless backend singletons by canonical name.
BACKENDS: dict[str, LinearSystemBackend] = {
    DenseBackend.name: DenseBackend(),
    SparseBackend.name: SparseBackend(),
}


def resolve_backend(
    spec: str | LinearSystemBackend, n_nodes: int | None = None
) -> LinearSystemBackend:
    """Map a backend spelling (or instance) to a backend object.

    ``"auto"`` selects :class:`SparseBackend` when ``n_nodes`` is at
    least :data:`SPARSE_AUTO_THRESHOLD` and :class:`DenseBackend`
    otherwise (also when the size is unknown).
    """
    if isinstance(spec, LinearSystemBackend):
        return spec
    if spec == "auto":
        if n_nodes is not None and n_nodes >= SPARSE_AUTO_THRESHOLD:
            return BACKENDS["sparse"]
        return BACKENDS["dense"]
    try:
        return BACKENDS[spec]
    except KeyError:
        raise AnalogError(
            f"unknown linear-system backend {spec!r}; "
            f"known: {', '.join(BACKEND_NAMES)}"
        ) from None
