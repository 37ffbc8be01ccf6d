"""Table 4: ATPG with and without constraints on the benchmark circuits.

For each benchmark digital block: #PI, #PO, collapsed-fault count, then
untestable faults / vector count / CPU seconds without constraints and
with the 15-comparator thermometer constraint on randomly chosen inputs.
The paper's reading: constraints increase untestable faults (all circuits
but one) and increase CPU time.

Each row compiles its block once and runs both cases on that compile, so
every fault site's Boolean differences are built once and shared.  Each
CPU column is that shared propagation time plus its own case's phase
(activation · propagation · ``Fc``, vector choice, compaction); the
compile is in neither.  The reproduction does not show the paper's
"constraints increase CPU time": the constrained case's own phase is
about as long as the stand-alone one.  The goldens leave both CPU
columns out.

Note (substitution): the digital blocks are interface-matched synthetic
stand-ins unless real ISCAS85 ``.bench`` files are supplied — see
``DESIGN.md``; the constrained-vs-unconstrained *deltas* are the
reproduced phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..atpg import AtpgRun, CircuitBdd, run_atpg
from ..circuits import TABLE4_CIRCUITS, benchmark_digital
from ..conversion import constraint_for_lines, random_line_assignment
from ..core import format_table

__all__ = ["Table4Row", "Table4Result", "run"]


@dataclass
class Table4Row:
    """One benchmark circuit's line of Table 4."""

    circuit: str
    n_inputs: int
    n_outputs: int
    n_faults: int
    without: AtpgRun
    with_constraints: AtpgRun
    #: primary inputs in declaration order: the bit order of the
    #: document's vector strings.
    inputs: list[str]

    def to_document(self) -> dict:
        """The row's reproduced columns plus every per-fault outcome."""
        return {
            "circuit": self.circuit,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "n_faults": self.n_faults,
            "without": self.without.to_document(self.inputs),
            "with_constraints": self.with_constraints.to_document(
                self.inputs
            ),
        }


@dataclass
class Table4Result:
    """All Table 4 rows."""

    rows: list[Table4Row]

    def to_document(self) -> dict:
        """Every reproduced number as JSON (the golden's content).

        Per row: #PI, #PO, collapsed faults, and for both cases
        ``#Untest``, ``#vect``, the compacted vectors and every fault's
        ``[fault, status, vector, observing outputs]``.  The CPU columns
        are wall-clock measurements, not reproduced numbers, and are
        left out.
        """
        return {
            "experiment": "table4",
            "rows": [row.to_document() for row in self.rows],
        }

    def render(self) -> str:
        headers = [
            "Circuit", "#PI", "#PO", "Collap. Faults",
            "w/o #Untest", "w/o #vect", "w/o CPU[s]",
            "w/ #Untest", "w/ #vect", "w/ CPU[s]",
        ]
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.circuit,
                    row.n_inputs,
                    row.n_outputs,
                    row.n_faults,
                    row.without.n_untestable,
                    row.without.n_vectors,
                    f"{row.without.cpu_seconds:.2f}",
                    row.with_constraints.n_untestable,
                    row.with_constraints.n_vectors,
                    f"{row.with_constraints.cpu_seconds:.2f}",
                ]
            )
        table = format_table(
            headers, table_rows,
            title="Table 4: test generation with and without constraints",
        )
        return (
            f"{table}\nCPU[s]: the row's shared propagation (built once on "
            "one compile) plus the case's own phase; compile excluded"
        )


def run(
    circuits: tuple[str, ...] = TABLE4_CIRCUITS,
    bench_dir: str | Path | None = None,
) -> Table4Result:
    """Run both ATPG cases on every benchmark circuit, on one compile each."""
    rows: list[Table4Row] = []
    for name in circuits:
        digital = benchmark_digital(name, bench_dir)
        seed = sum(ord(ch) for ch in name)
        lines = random_line_assignment(digital.inputs, 15, seed)
        cbdd = CircuitBdd(digital)
        without = run_atpg(digital, cbdd=cbdd)
        with_constraints = run_atpg(
            digital, constraint=constraint_for_lines(lines), cbdd=cbdd
        )
        rows.append(
            Table4Row(
                circuit=name,
                n_inputs=len(digital.inputs),
                n_outputs=len(digital.outputs),
                n_faults=without.n_faults,
                without=without,
                with_constraints=with_constraints,
                inputs=list(digital.inputs),
            )
        )
    return Table4Result(rows)


if __name__ == "__main__":
    print(run().render())
