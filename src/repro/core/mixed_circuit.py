"""The mixed-signal circuit under test: analog → conversion → digital.

The paper's Figure 4/5 architecture: one analog primary input drives an
analog block; the analog output feeds the conversion block (a comparator
bank with ladder thresholds); the comparator outputs drive a subset of
the digital block's inputs; the remaining digital inputs and all digital
outputs are directly accessible primary I/O.  ``MixedSignalCircuit``
glues the three substrates together and owns the line mapping and the
derived constraint function.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..analog import PerformanceParameter
from ..atpg import CircuitBdd
from ..bdd import BddManager
from ..conversion import FlashAdc, thermometer_constraint
from ..digital.netlist import Circuit
from ..spice import AnalogCircuit

__all__ = ["MixedSignalCircuit"]


@dataclass
class MixedSignalCircuit:
    """An analog-digital circuit under test (paper Figure 4).

    Attributes:
        name: identifier for reports.
        analog: the analog block netlist.
        analog_source: name of the analog primary-input voltage source.
        analog_output: node observed by the conversion block.
        adc: the conversion block (ladder + comparators).
        digital: the digital block netlist.
        converter_lines: digital input names driven by the comparators,
            lowest threshold first; must be a subset of
            ``digital.inputs``.
        parameters: the analog block's measurable performance parameters.
    """

    name: str
    analog: AnalogCircuit
    analog_source: str
    analog_output: str
    adc: FlashAdc
    digital: Circuit
    converter_lines: list[str]
    parameters: list[PerformanceParameter] = field(default_factory=list)
    #: the digital block compiled to BDDs, built on first use.
    _cbdd: CircuitBdd | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        missing = [
            line for line in self.converter_lines
            if line not in self.digital.inputs
        ]
        if missing:
            raise ValueError(
                f"converter lines {missing} are not digital inputs"
            )
        if len(self.converter_lines) != self.adc.n_comparators:
            raise ValueError(
                f"{self.adc.n_comparators} comparators cannot drive "
                f"{len(self.converter_lines)} lines"
            )

    # ------------------------------------------------------------------
    @property
    def free_digital_inputs(self) -> list[str]:
        """Digital primary inputs not owned by the converter."""
        owned = set(self.converter_lines)
        return [name for name in self.digital.inputs if name not in owned]

    def constraint_builder(self) -> Callable[[BddManager], int]:
        """``Fc`` builder: thermometer code over the converter lines."""
        lines = list(self.converter_lines)

        def build(mgr: BddManager) -> int:
            return thermometer_constraint(mgr, lines)

        return build

    def compiled_digital(self) -> CircuitBdd:
        """The digital block's BDDs (compiled once, then cached)."""
        if self._cbdd is None:
            self._cbdd = CircuitBdd(self.digital)
        return self._cbdd

    # ------------------------------------------------------------------
    def analog_amplitude(
        self,
        frequency_hz: float,
        amplitude: float,
        deviations: dict[str, float] | None = None,
    ) -> float:
        """|v(analog_output)| for a sine of the given amplitude/frequency.

        Linear model: output amplitude = |H(f)|·A (DC level for f = 0),
        with the analog block at the ``deviations`` state (None =
        nominal), so the same call serves the good and the faulty
        circuit.
        """
        from ..spice import gain_at  # local import to avoid cycles

        return amplitude * gain_at(
            self.analog,
            self.analog_source,
            self.analog_output,
            frequency_hz,
            deviations,
        )

    def converter_code(
        self,
        frequency_hz: float,
        amplitude: float,
        deviations: dict[str, float] | None = None,
    ) -> tuple[int, ...]:
        """Comparator outputs (thermometer code) for a stimulus, with the
        analog block at the ``deviations`` state (None = nominal).

        The comparator bank samples the sine at its positive peak, so
        comparator *i* reads 1 iff the output amplitude exceeds ``Vti``.
        """
        peak = self.analog_amplitude(frequency_hz, amplitude, deviations)
        return self.adc.convert(peak)

    def stats(self) -> dict[str, int]:
        """Headline size counters for reports."""
        digital = self.digital.stats()
        return {
            "analog_elements": len(self.analog.element_names()),
            "comparators": self.adc.n_comparators,
            "ladder_resistors": len(self.adc.resistor_values),
            "digital_inputs": digital["inputs"],
            "digital_outputs": digital["outputs"],
            "digital_gates": digital["gates"],
            "free_inputs": len(self.free_digital_inputs),
        }
