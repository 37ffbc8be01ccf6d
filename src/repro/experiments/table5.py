"""Table 5: propagation of faulty parameters through the comparators.

For every benchmark mixed circuit: through how many comparators can an
analog fault *not* be propagated?  The paper splits the count by the
fault side (deviation below −x% vs above +x%, i.e. composite value ``D``
vs ``D̄`` at the comparator) and reports the analysis CPU time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..atpg import CompositeValue
from ..circuits import TABLE4_CIRCUITS, example3_mixed_circuit
from ..core import MixedSignalTestGenerator, format_table

__all__ = ["Table5Row", "Table5Result", "run"]


@dataclass
class Table5Row:
    """Comparator-propagation summary for one mixed circuit."""

    circuit: str
    n_inputs: int
    n_converter_lines: int
    #: comparators that cannot propagate D (fault drops the output).
    blocked_d: int
    #: comparators that cannot propagate D̄ (fault raises the output).
    blocked_dbar: int
    cpu_seconds: float
    #: per-comparator observability for D (Table 7 consumes this).
    observability_d: list[bool]


@dataclass
class Table5Result:
    """All Table 5 rows."""

    rows: list[Table5Row]

    def render(self) -> str:
        headers = [
            "Circuit", "#PIs", "#PIs from C.B.",
            "#blocked (dev < -x%)", "#blocked (dev > +x%)", "CPU[s]",
        ]
        table_rows = [
            [
                row.circuit,
                row.n_inputs,
                row.n_converter_lines,
                row.blocked_d,
                row.blocked_dbar,
                f"{row.cpu_seconds:.2f}",
            ]
            for row in self.rows
        ]
        return format_table(
            headers, table_rows,
            title="Table 5: propagation of faulty parameters through comparators",
        )

    def to_document(self) -> dict:
        """Every reproduced number as JSON (the CPU column excluded)."""
        return {
            "experiment": "table5",
            "rows": [
                {
                    "circuit": row.circuit,
                    "n_inputs": row.n_inputs,
                    "n_converter_lines": row.n_converter_lines,
                    "blocked_d": row.blocked_d,
                    "blocked_dbar": row.blocked_dbar,
                    "observability_d": list(row.observability_d),
                }
                for row in self.rows
            ],
        }


def run(
    circuits: tuple[str, ...] = TABLE4_CIRCUITS,
    bench_dir: str | Path | None = None,
) -> Table5Result:
    """Compute per-comparator D/D̄ propagation for every benchmark."""
    rows: list[Table5Row] = []
    for name in circuits:
        mixed = example3_mixed_circuit(name, bench_dir=bench_dir)
        generator = MixedSignalTestGenerator(mixed)
        start = time.perf_counter()
        obs_d = generator.comparator_observability(CompositeValue.D)
        obs_dbar = generator.comparator_observability(CompositeValue.D_BAR)
        elapsed = time.perf_counter() - start
        rows.append(
            Table5Row(
                circuit=name,
                n_inputs=len(mixed.digital.inputs),
                n_converter_lines=len(mixed.converter_lines),
                blocked_d=sum(1 for ok in obs_d if not ok),
                blocked_dbar=sum(1 for ok in obs_dbar if not ok),
                cpu_seconds=elapsed,
                observability_d=obs_d,
            )
        )
    return Table5Result(rows)


if __name__ == "__main__":
    print(run().render())
