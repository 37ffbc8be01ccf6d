"""Example 2 (section 2.2.1): constraints make two Fig. 3 faults untestable.

Stand-alone the Figure 3 circuit is 100 % stuck-at testable; with the
analog constraint ``Fc = l0 + l2`` exactly 2 of its 18 uncollapsed single
stuck-at faults become undetectable.  This experiment regenerates both
runs and the specific untestable faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atpg import AtpgRun, CircuitBdd, run_atpg
from ..circuits import fig3_circuit
from ..conversion import pair_exclusion_constraint
from ..core import format_table
from ..digital import fault_universe

__all__ = ["Example2Result", "run"]


@dataclass
class Example2Result:
    """Unconstrained vs constrained ATPG on the Figure 3 circuit."""

    unconstrained: AtpgRun
    constrained: AtpgRun
    #: primary inputs in declaration order: the bit order of the
    #: document's vector strings.
    inputs: list[str]

    def to_document(self) -> dict:
        """Both runs' reproduced columns plus every per-fault outcome."""
        return {
            "experiment": "example2",
            "n_faults": self.unconstrained.n_faults,
            "unconstrained": self.unconstrained.to_document(self.inputs),
            "constrained": self.constrained.to_document(self.inputs),
        }

    def render(self) -> str:
        headers = [
            "case", "faults", "untestable", "vectors", "CPU [s]",
        ]
        rows = [
            [
                "digital alone",
                self.unconstrained.n_faults,
                self.unconstrained.n_untestable,
                self.unconstrained.n_vectors,
                f"{self.unconstrained.cpu_seconds:.3f}",
            ],
            [
                "with Fc = l0 + l2",
                self.constrained.n_faults,
                self.constrained.n_untestable,
                self.constrained.n_vectors,
                f"{self.constrained.cpu_seconds:.3f}",
            ],
        ]
        table = format_table(
            headers, rows,
            title="Example 2: Fig. 3 circuit, 18 uncollapsed stuck-at faults",
        )
        killed = ", ".join(
            str(f) for f in self.constrained.untestable_faults()
        )
        return f"{table}\nconstraint-killed faults: {killed}"


def run() -> Example2Result:
    """Run both Example 2 cases on the stem-fault universe."""
    circuit = fig3_circuit()
    faults = fault_universe(circuit, include_branches=False)
    cbdd = CircuitBdd(circuit)
    unconstrained = run_atpg(circuit, faults=faults, cbdd=cbdd)
    constrained = run_atpg(
        circuit, faults=faults,
        constraint=pair_exclusion_constraint("l0", "l2"),
        cbdd=cbdd,
    )
    return Example2Result(unconstrained, constrained, list(circuit.inputs))


if __name__ == "__main__":
    print(run().render())
