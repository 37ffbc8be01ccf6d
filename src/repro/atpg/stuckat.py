"""Backtrack-free stuck-at test generation — the BDD_FTEST algebra.

For a fault ``l`` s-a-``v`` the paper (section 2.2.1) characterizes the
complete set of test vectors as the Boolean product

    S  =  f_l^(v̄)  ·  Σ_o ∂PO_o/∂l  ·  Fc

* ``f_l^(v̄)`` — *activation*: assignments driving line ``l`` to the
  complement of the stuck value,
* ``∂PO_o/∂l`` — *propagation*: the Boolean difference of output ``o``
  with respect to the line, ``f_o|l=0 ⊕ f_o|l=1``.  At fan-out stems
  and primary outputs it comes from two rebuilds of the line's fan-out
  cone with the constants spliced in at the site — the same function as
  cofactoring the paper's cut variable away, without the cut variable.
  Every other site reaches the outputs through one gate input pin
  ``(g, p)`` only, and the chain rule ``∂PO_o/∂l = ∂g/∂l · ∂PO_o/∂g``
  holds exactly there, so it costs one local difference and one product.
  It depends on neither the stuck value nor ``Fc``, so the compiled
  block memoizes it (:meth:`CircuitBdd.propagation`) for every generator
  on it,
* ``Fc`` — the *constraint function*: assignments the analog/conversion
  blocks can actually produce on the converter-driven inputs (``1`` when
  the digital block is tested stand-alone).

Because ``S`` is computed algebraically, emptiness (``S = 0``) *proves*
the fault untestable — no backtracking, no aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..bdd.manager import FALSE, TRUE
from ..bdd.ops import minimize_path
from ..digital.faults import Fault
from ..digital.simulate import fault_simulate
from .ckt2bdd import CircuitBdd, Site

__all__ = [
    "TestStatus",
    "TestResult",
    "StuckAtGenerator",
    "SimulationCheckError",
]


def fault_site(fault: Fault) -> Site:
    """The ``(line, pin_site)`` a fault sits on (see :data:`Site`)."""
    return (fault.line, None if fault.is_stem else (fault.gate, fault.pin))


class SimulationCheckError(AssertionError):
    """The BDD test algebra and the fault simulator disagreed.

    Raised only under ``simulation_check=True``: a generated vector,
    replayed through the (cone-limited) fault simulator, failed to
    detect its target fault — which means a bug in one of the two
    independent implementations.
    """


class TestStatus(str, Enum):
    """Outcome of test generation for one fault."""

    __test__ = False  # not a pytest test class

    DETECTED = "detected"
    UNTESTABLE = "untestable"
    #: Testable stand-alone but killed by the analog constraints — the
    #: quantity Table 4 tracks as the constraint-induced untestable faults.
    CONSTRAINED_UNTESTABLE = "constrained-untestable"


@dataclass
class TestResult:
    """Result of generating a test for one fault."""

    __test__ = False  # not a pytest test class

    fault: Fault
    status: TestStatus
    vector: dict[str, int] | None = None
    #: primary outputs at which the fault effect is observable.
    observing_outputs: tuple[str, ...] = ()
    #: number of satisfying vectors of the (constrained) test set, when
    #: requested — the paper's "set of test vectors S".
    test_set_size: int | None = None


class StuckAtGenerator:
    """Deterministic, backtrack-free stuck-at ATPG over BDDs.

    Args:
        cbdd: compiled circuit BDDs.
        constraint: BDD node of ``Fc`` on the same manager (``TRUE`` for
            an unconstrained circuit).
        count_vectors: when true, each result carries ``test_set_size``
            (exponential-free — BDD sat-count).
        simulation_check: replay every generated vector through the
            compiled fault simulator and raise
            :class:`SimulationCheckError` if it fails to detect its
            target fault — one cone-limited faulty pass per vector.
    """

    def __init__(
        self,
        cbdd: CircuitBdd,
        constraint: int = TRUE,
        count_vectors: bool = False,
        simulation_check: bool = False,
    ):
        self.cbdd = cbdd
        self.mgr = cbdd.mgr
        self.constraint = constraint
        self.count_vectors = count_vectors
        self.simulation_check = simulation_check
        #: vectors replayed through the fault simulator so far.
        self.simulation_checks = 0
        self._n_inputs = len(cbdd.circuit.inputs)
        #: per site: ``Σ_o ∂PO_o/∂l · Fc``.
        self._constrained_union: dict[Site, int] = {}

    # ------------------------------------------------------------------
    def activation_function(self, fault: Fault) -> int:
        """``f_l^(v̄)``: assignments setting the fault site to the good value."""
        line_function = self.cbdd.line_function(fault.line)
        if fault.stuck_value == 0:
            return line_function
        return self.mgr.not_(line_function)

    def propagation_function(self, fault: Fault) -> tuple[int, dict[str, int]]:
        """``Σ_o ∂PO_o/∂l`` plus the per-output Boolean differences.

        ``∂PO_o/∂l = PO_o|l=0 ⊕ PO_o|l=1`` for every primary output, in
        output order.  :meth:`generate` never needs the per-output
        products of a chained site, so they are built only here, afresh
        on each call.
        """
        site = fault_site(fault)
        union, differences = self.cbdd.propagation(*site)
        # The chain's local factors, down to the stem owning ``differences``.
        gain = TRUE
        link = site
        while (successor := self.cbdd.sole_successor(*link)) is not None:
            gain = self.mgr.and_(gain, self.cbdd.local_difference(*successor))
            link = (successor[0], None)
        per_output = {
            out: self.mgr.and_(gain, differences.get(out, FALSE))
            for out in self.cbdd.circuit.outputs
        }
        return union, per_output

    def test_set(self, fault: Fault, constrained: bool = True) -> int:
        """The complete test-vector set ``S`` as a BDD node."""
        activation = self.activation_function(fault)
        if activation == FALSE:
            return FALSE
        propagation, _ = self.cbdd.propagation(*fault_site(fault))
        s = self.mgr.and_(activation, propagation)
        if constrained:
            s = self.mgr.and_(s, self.constraint)
        return s

    def generate(self, fault: Fault) -> TestResult:
        """Generate a test for one fault, classifying untestability.

        A fault with an empty constrained test set is re-checked without
        ``Fc``: if a vector exists stand-alone the fault is
        ``CONSTRAINED_UNTESTABLE`` (the analog block killed it), otherwise
        it is structurally ``UNTESTABLE``.
        """
        activation = self.activation_function(fault)
        if activation == FALSE:
            return TestResult(fault, TestStatus.UNTESTABLE)
        site = fault_site(fault)
        propagation, differences = self.cbdd.propagation(*site)
        # ``Σ_o ∂PO_o/∂l · Fc`` is shared by both polarities of the site.
        constrained = self._constrained_union.get(site)
        if constrained is None:
            constrained = self.mgr.and_(propagation, self.constraint)
            self._constrained_union[site] = constrained
        s = self.mgr.and_(activation, constrained)
        if s == FALSE:
            if self.mgr.and_(activation, propagation) == FALSE:
                return TestResult(fault, TestStatus.UNTESTABLE)
            return TestResult(fault, TestStatus.CONSTRAINED_UNTESTABLE)
        vector = minimize_path(self.mgr, s)
        assert vector is not None
        full_vector = self._complete(vector)
        if self.simulation_check:
            self.simulation_checks += 1
            replay = fault_simulate(self.cbdd.circuit, [full_vector], [fault])
            if not replay[fault]:
                raise SimulationCheckError(
                    f"BDD algebra produced vector {full_vector} for fault "
                    f"{fault}, but the fault simulator does not see a "
                    "detection"
                )
        # ``full_vector`` satisfies ``s``, so every local factor of the
        # site's chain is 1 there and ``∂PO_o/∂l`` evaluates like the
        # closing stem's ``∂PO_o/∂stem``.
        observing = tuple(
            out
            for out, diff in differences.items()
            if self.mgr.evaluate(diff, full_vector)
        )
        size = None
        if self.count_vectors:
            size = self.mgr.sat_count(s, self._n_inputs)
        return TestResult(
            fault,
            TestStatus.DETECTED,
            vector=full_vector,
            observing_outputs=observing,
            test_set_size=size,
        )

    def _complete(self, partial: dict) -> dict[str, int]:
        """Extend a partial path assignment to all primary inputs (0 fill)."""
        vector = {name: 0 for name in self.cbdd.circuit.inputs}
        for name, value in partial.items():
            if name in vector:
                vector[name] = value
        return vector
