"""Flash A/D conversion block: resistor ladder + comparator bank.

The paper's Example 3 conversion circuit is "a comparison circuit made of
15 comparators and 16 resistors": a reference ladder of 16 resistors
produces 15 tap voltages ``Vt1 < Vt2 < ... < Vt15``, and comparator *i*
outputs 1 when the analog input exceeds ``Vti``.  The comparator outputs
therefore always form a *thermometer code* — the source of the paper's
constraint function ``Fc``.

The ladder is modelled both analytically (tap voltages from the resistor
chain) and, for cross-validation, as an MNA netlist via
:meth:`FlashAdc.as_circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spice import AnalogCircuit

__all__ = ["FlashAdc"]


@dataclass
class FlashAdc:
    """An N-comparator flash converter with a resistor reference ladder.

    A deviated ladder is a copy with deviated ``resistor_values``
    (``dataclasses.replace``); the converter itself holds no deviation
    state.

    Attributes:
        n_comparators: number of comparators (= taps = resistors − 1).
        v_top: the reference voltage across the whole ladder.
        resistor_values: ladder resistors bottom-to-top, ``R1..R{N+1}``.
    """

    n_comparators: int = 15
    v_top: float = 5.0
    resistor_values: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.resistor_values:
            self.resistor_values = [1_000.0] * (self.n_comparators + 1)
        if len(self.resistor_values) != self.n_comparators + 1:
            raise ValueError(
                f"{self.n_comparators} comparators need "
                f"{self.n_comparators + 1} ladder resistors"
            )

    # ------------------------------------------------------------------
    # Elements
    # ------------------------------------------------------------------
    def element_names(self) -> list[str]:
        """Ladder resistor names, ``R1`` (bottom) .. ``R{N+1}`` (top)."""
        return [f"R{i + 1}" for i in range(len(self.resistor_values))]

    # ------------------------------------------------------------------
    # Conversion behaviour
    # ------------------------------------------------------------------
    def thresholds(self) -> list[float]:
        """Tap voltages ``Vt1..VtN`` of the ladder."""
        values = self.resistor_values
        total = sum(values)
        taps: list[float] = []
        running = 0.0
        for value in values[:-1]:
            running += value
            taps.append(self.v_top * running / total)
        return taps

    def threshold(self, comparator_index: int) -> float:
        """``Vt{i+1}`` for a 0-based comparator index."""
        return self.thresholds()[comparator_index]

    def convert(self, v_in: float) -> tuple[int, ...]:
        """Thermometer code for an input voltage (comparator 1 first)."""
        return tuple(1 if v_in > vt else 0 for vt in self.thresholds())

    def code(self, v_in: float) -> int:
        """The count of asserted comparators (0..N)."""
        return sum(self.convert(v_in))

    def output_names(self, prefix: str = "l") -> list[str]:
        """Default digital line names for the comparator outputs."""
        return [f"{prefix}{i}" for i in range(self.n_comparators)]

    # ------------------------------------------------------------------
    # Cross-validation netlist
    # ------------------------------------------------------------------
    def as_circuit(self, name: str = "flash-ladder") -> AnalogCircuit:
        """The reference ladder as an MNA netlist (taps ``t1..tN``).

        Used in tests to confirm the analytic tap formula against the
        simulator, and available for users who want ladder loading
        effects (add comparator input resistors to the returned circuit).
        """
        circuit = AnalogCircuit(name)
        circuit.vsource("Vref", "top", "0", dc=self.v_top, ac=0.0)
        n = len(self.resistor_values)
        for index, value in enumerate(self.resistor_values):
            lower = "0" if index == 0 else f"t{index}"
            upper = "top" if index == n - 1 else f"t{index + 1}"
            circuit.resistor(f"R{index + 1}", upper, lower, value)
        return circuit
