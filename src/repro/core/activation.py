"""Analog fault activation through the conversion block (section 2.3).

Given an analog fault (element deviation), a targeted performance
parameter and a Table 1 stimulus, this module determines the logic value
of every converter-driven digital line in the fault-free and the faulty
circuit, and therefore which lines carry composite values (``D``/``D̄``),
which are constants — and whether the fault was *activated* at all
(at least one line must differ).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analog import AnalogFault
from ..atpg import CompositeValue
from .mixed_circuit import MixedSignalCircuit
from .stimulus import StimulusChoice

__all__ = ["ActivationResult", "activate"]


@dataclass
class ActivationResult:
    """Line values produced by one stimulus under one analog fault."""

    #: the stimulus that was applied.
    choice: StimulusChoice
    #: thermometer code of the fault-free circuit.
    good_code: tuple[int, ...]
    #: thermometer code of the faulty circuit.
    faulty_code: tuple[int, ...]
    #: per-line pinned values for the composite propagation engine.
    pinned: dict[str, CompositeValue]

    @property
    def activated(self) -> bool:
        """True when at least one comparator distinguishes the circuits."""
        return self.good_code != self.faulty_code

    def composite_lines(self) -> list[str]:
        """The digital lines carrying ``D`` or ``D̄``."""
        return [
            line
            for line, value in self.pinned.items()
            if value in (CompositeValue.D, CompositeValue.D_BAR)
        ]


def activate(
    mixed: MixedSignalCircuit,
    fault: AnalogFault,
    choice: StimulusChoice,
) -> ActivationResult:
    """Apply a stimulus and compare good/faulty converter codes.

    The analog block is simulated twice — at nominal and with the fault's
    deviation applied — and each comparator line is classified:

    ========  ========  =================
    good      faulty    pinned value
    ========  ========  =================
    0         0         ``CompositeValue.ZERO``
    1         1         ``CompositeValue.ONE``
    1         0         ``CompositeValue.D``
    0         1         ``CompositeValue.D_BAR``
    ========  ========  =================
    """
    frequency = choice.stimulus.frequency_hz
    amplitude = choice.stimulus.amplitude
    good_code = mixed.converter_code(frequency, amplitude)
    faulty_code = mixed.converter_code(
        frequency,
        amplitude,
        {fault.element: fault.value_deviation(mixed.analog)},
    )
    pinned: dict[str, CompositeValue] = {}
    for line, good, faulty in zip(
        mixed.converter_lines, good_code, faulty_code
    ):
        if good == 1 and faulty == 1:
            pinned[line] = CompositeValue.ONE
        elif good == 0 and faulty == 0:
            pinned[line] = CompositeValue.ZERO
        elif good == 1 and faulty == 0:
            pinned[line] = CompositeValue.D
        else:
            pinned[line] = CompositeValue.D_BAR
    return ActivationResult(choice, good_code, faulty_code, pinned)
