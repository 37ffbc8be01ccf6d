"""Whole-circuit constrained ATPG runs (the Table 4 workload).

Ties together the fault universe, the BDD test algebra, the constraint
function and vector compaction into one callable producing the statistics
the paper reports per benchmark circuit: number of untestable faults,
number of (compacted) vectors, and CPU time — with and without the analog
constraints.

A run has two phases.  The shared phase builds every fault site's
Boolean differences, which depend on neither the stuck value nor ``Fc``;
they are memoized on the :class:`CircuitBdd`, so a second run on the same
compile (the other Table 4 case) finds them built.  The per-case phase
forms ``activation · Σ_o ∂PO_o/∂l · Fc`` per fault, picks its vector,
classifies the fault and compacts the vectors.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from ..api.config import AtpgConfig
from ..bdd.manager import TRUE, BddManager
from ..bdd.ops import constraint_from_terms
from ..digital.compiled import CompiledFaultSimulator
from ..digital.faults import Fault, collapse_faults, fault_universe
from ..digital.netlist import Circuit
from .ckt2bdd import CircuitBdd
from .stuckat import StuckAtGenerator, TestResult, TestStatus, fault_site

__all__ = ["AtpgRun", "run_atpg", "constraint_builder_from_terms"]


@dataclass
class AtpgRun:
    """Aggregate result of one ATPG campaign over a fault list."""

    circuit_name: str
    n_inputs: int
    n_outputs: int
    n_faults: int
    constrained: bool
    results: list[TestResult] = field(default_factory=list)
    vectors: list[dict[str, int]] = field(default_factory=list)
    #: the block's shared propagation seconds plus this case's own phase
    #: (and the compile, when ``run_atpg`` compiled the block itself).
    #: This and ``diagnostics`` are excluded from equality so runs
    #: compare by what they produced, not how fast they produced it.
    cpu_seconds: float = field(default=0.0, compare=False)
    #: engine/cache observability of the run: digital fault-sim engine,
    #: compaction counters, and the BDD cache stats of the block's
    #: manager, which every run on one compile shares, so they are
    #: cumulative over those runs.
    diagnostics: dict | None = field(default=None, compare=False)

    @property
    def n_untestable(self) -> int:
        """Faults with no test under the active constraints (both kinds)."""
        return sum(
            1
            for r in self.results
            if r.status
            in (TestStatus.UNTESTABLE, TestStatus.CONSTRAINED_UNTESTABLE)
        )

    @property
    def n_constrained_untestable(self) -> int:
        """Faults killed specifically by the analog constraints."""
        return sum(
            1
            for r in self.results
            if r.status is TestStatus.CONSTRAINED_UNTESTABLE
        )

    @property
    def n_detected(self) -> int:
        """Faults for which a vector was produced."""
        return sum(1 for r in self.results if r.status is TestStatus.DETECTED)

    @property
    def n_vectors(self) -> int:
        """Compacted vector count — the paper's ``#vect`` column."""
        return len(self.vectors)

    @property
    def fault_coverage(self) -> float:
        """Detected / total, as a fraction."""
        if not self.results:
            return 1.0
        return self.n_detected / len(self.results)

    def untestable_faults(self) -> list[Fault]:
        """The untestable faults themselves (for the Example 2 assertion)."""
        return [
            r.fault
            for r in self.results
            if r.status
            in (TestStatus.UNTESTABLE, TestStatus.CONSTRAINED_UNTESTABLE)
        ]

    def to_document(self, inputs: Sequence[str]) -> dict:
        """Every reproduced number of the run (CPU time excluded).

        Vectors are bit strings in ``inputs`` order.  Each fault is one
        ``"fault | status | vector | observing outputs"`` line, so a
        golden diff names exactly the faults that moved.
        """

        def bits(vector: Mapping[str, int]) -> str:
            return "".join(str(vector[name]) for name in inputs)

        return {
            "n_untestable": self.n_untestable,
            "n_vectors": self.n_vectors,
            "vectors": [bits(v) for v in self.vectors],
            "faults": [
                " | ".join(
                    (
                        str(r.fault),
                        r.status.value,
                        "-" if r.vector is None else bits(r.vector),
                        " ".join(r.observing_outputs) or "-",
                    )
                )
                for r in self.results
            ],
        }


def constraint_builder_from_terms(
    terms: Iterable[Mapping[str, int]],
) -> Callable[[BddManager], int]:
    """Adapt a list of allowed partial assignments into a constraint builder."""
    frozen = [dict(t) for t in terms]

    def build(mgr: BddManager) -> int:
        return constraint_from_terms(mgr, frozen)

    return build


def run_atpg(
    circuit: Circuit,
    faults: Sequence[Fault] | None = None,
    constraint: Callable[[BddManager], int] | None = None,
    config: AtpgConfig | None = None,
    cbdd: CircuitBdd | None = None,
) -> AtpgRun:
    """Run deterministic constrained ATPG over a circuit.

    Args:
        circuit: the digital block.
        faults: fault list; defaults to the collapsed universe (matching
            the paper's ``Collap. Faults`` column) built from stems and
            fan-out branches.
        constraint: callable producing the ``Fc`` BDD on the engine's
            manager; ``None`` runs the unconstrained case.  Ignored when
            ``config.constrained`` is ``False``.
        config: typed configuration (:class:`repro.api.AtpgConfig`):
            vector compaction, fault collapsing (when ``faults`` is
            None) and the simulation cross-check.
        cbdd: an already-compiled circuit BDD for ``circuit`` to reuse
            (the mixed flow's :meth:`MixedSignalCircuit.compiled_digital`),
            so neither compilation nor the propagation memoized on it
            (:meth:`CircuitBdd.propagation`) is re-paid; ``None``
            compiles ``circuit`` in fan-in order.

    Returns:
        an :class:`AtpgRun` with per-fault results, vectors and CPU time.
        ``cpu_seconds`` is the block's shared propagation seconds
        (``cbdd.propagation_seconds``, whichever run paid them) plus
        this run's own phase, so both cases on one compile report the
        shared work.
    """
    config = config if config is not None else AtpgConfig()
    if not config.constrained:
        constraint = None  # the config force-disables the analog constraints
    if faults is None:
        universe = fault_universe(circuit, include_branches=True)
        faults = (
            collapse_faults(circuit, universe) if config.collapse else universe
        )
    start = time.perf_counter()
    if cbdd is None:
        cbdd = CircuitBdd(circuit)
    # Shared phase: every missing site's Boolean differences, memoized on
    # the compile for each later run on it.
    shared_before = cbdd.propagation_seconds
    for fault in faults:
        cbdd.propagation(*fault_site(fault))
    if cbdd.propagation_seconds != shared_before:
        # The cone rebuilds' computed-table entries are dead once the
        # differences are taken.
        cbdd.mgr.clear_operation_cache()
    fc = TRUE if constraint is None else constraint(cbdd.mgr)
    generator = StuckAtGenerator(
        cbdd,
        constraint=fc,
        simulation_check=config.simulation_check,
    )
    results = [generator.generate(fault) for fault in faults]
    raw_vectors = [r.vector for r in results if r.vector is not None]
    # Deduplicate while preserving order; distinct faults frequently share
    # a vector, which is the first layer of compaction.
    unique: list[dict[str, int]] = []
    seen: set[tuple[tuple[str, int], ...]] = set()
    for vector in raw_vectors:
        key = tuple(sorted(vector.items()))
        if key not in seen:
            seen.add(key)
            unique.append(vector)
    faultsim_stats: dict | None = None
    if config.compact and unique:
        detected = [r.fault for r in results if r.status is TestStatus.DETECTED]
        # The engine object keeps the single-pass compaction
        # diagnostics the plain compact_vectors would discard.
        simulator = CompiledFaultSimulator(circuit)
        vectors = simulator.compact(unique, detected)
        if simulator.last_diagnostics is not None:
            faultsim_stats = simulator.last_diagnostics.as_dict()
    else:
        vectors = unique
    elapsed = time.perf_counter() - start
    return AtpgRun(
        circuit_name=circuit.name,
        n_inputs=len(circuit.inputs),
        n_outputs=len(circuit.outputs),
        n_faults=len(faults),
        constrained=constraint is not None,
        results=results,
        vectors=vectors,
        cpu_seconds=elapsed + shared_before,
        diagnostics={
            "digital_engine": "compiled",
            "simulation_checks": generator.simulation_checks,
            "compaction": faultsim_stats,
            "bdd": cbdd.mgr.cache_stats(),
        },
    )
