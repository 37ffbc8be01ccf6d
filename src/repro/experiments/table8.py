"""Table 8: the Figure 8 validation board — CD vs MPD.

Inject every selected component's computed worst-case deviation (CD) on
a seeded discrete realization of the state-variable-filter board and
measure the parameter deviation (MPD).  The paper's claims, asserted by
this experiment:

* every injected CD drives its parameter out of the ±5 % tolerance box,
* the computation is pessimistic (MPD routinely exceeds the 5 % bound by
  a wide margin — faults smaller than CD are often still detectable),
* every fault is also visible at the digital outputs of the board.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import StateVariableBoard, Table8Row, format_table

__all__ = ["Table8Result", "run"]


@dataclass
class Table8Result:
    """The board rows plus pass/fail summary."""

    rows: list[Table8Row]
    board_seed: int

    def render(self) -> str:
        headers = ["T", "C", "CD[%]", "MPD[%]", "out of box", "digital"]
        table_rows = [
            [
                row.parameter,
                row.component,
                row.cd_percent,
                row.mpd_percent,
                "yes" if row.out_of_box else "NO",
                "detected" if row.detected_digitally else "MISSED",
            ]
            for row in self.rows
        ]
        table = format_table(
            headers, table_rows,
            title=(
                f"Table 8: state-variable board (seed {self.board_seed}), "
                "computed vs measured deviations"
            ),
        )
        n_out = sum(1 for r in self.rows if r.out_of_box)
        n_digital = sum(1 for r in self.rows if r.detected_digitally)
        return (
            f"{table}\n"
            f"{n_out}/{len(self.rows)} parameters out of box, "
            f"{n_digital}/{len(self.rows)} faults visible digitally"
        )

    def to_document(self) -> dict:
        """Every row's CD and MPD (percent, floats exact) as JSON."""
        return {
            "experiment": "table8",
            "board_seed": self.board_seed,
            "rows": [
                {
                    "parameter": row.parameter,
                    "component": row.component,
                    "cd_percent": row.cd_percent,
                    "mpd_percent": row.mpd_percent,
                    "out_of_box": row.out_of_box,
                    "detected_digitally": row.detected_digitally,
                }
                for row in self.rows
            ],
        }


def run(seed: int = 1995) -> Table8Result:
    """Simulate the board and regenerate Table 8."""
    board = StateVariableBoard(seed=seed)
    return Table8Result(board.table8(), seed)


if __name__ == "__main__":
    print(run().render())
