"""Table 2: notation of the used parameters — rendered from the live code.

The paper's Table 2 is a glossary; the reproduction regenerates it from
the actual parameter taxonomy so the documentation can never drift from
the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analog import ParameterKind
from ..core import format_table

__all__ = ["Table2Result", "run"]

_DESCRIPTIONS: dict[ParameterKind, str] = {
    ParameterKind.AC_GAIN: "AC gain of the analog circuit at frequency f",
    ParameterKind.DC_GAIN: "DC gain of the analog circuit",
    ParameterKind.PEAK_GAIN: "maximum AC gain (center-frequency gain)",
    ParameterKind.CENTER_FREQUENCY: "frequency of the maximum AC gain",
    ParameterKind.CUTOFF_LOW: "low cut-off frequency (-3 dB, low side)",
    ParameterKind.CUTOFF_HIGH: "high cut-off frequency (-3 dB, high side)",
}


@dataclass
class Table2Result:
    """The parameter-notation glossary."""

    entries: dict[ParameterKind, str]

    def rows(self) -> list[list[str]]:
        """``[symbol, meaning]`` per row, in the order rendered."""
        rows = [
            [kind.value, description]
            for kind, description in self.entries.items()
        ]
        rows.append(
            ["Vref", "a voltage reference from the conversion block"]
        )
        rows.append(
            ["y", "gain deviation seen when the frequency deviates by x%"]
        )
        return rows

    def render(self) -> str:
        return format_table(
            ["symbol", "meaning"], self.rows(),
            title="Table 2: notation of the used parameters",
        )

    def to_document(self) -> dict:
        """The glossary as JSON: one ``[symbol, meaning]`` pair per row."""
        return {"experiment": "table2", "rows": self.rows()}


def run() -> Table2Result:
    """Build the glossary from the live :class:`ParameterKind` enum."""
    return Table2Result(dict(_DESCRIPTIONS))


if __name__ == "__main__":
    print(run().render())
