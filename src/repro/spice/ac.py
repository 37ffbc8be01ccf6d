"""AC sweeps and transfer-function utilities on top of the MNA solver."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .acmodel import AcModel
from .backends import LinearSystemBackend
from .netlist import AnalogCircuit, AnalogError

__all__ = [
    "FrequencyResponse",
    "transfer",
    "sweep",
    "log_frequencies",
]


@dataclass
class FrequencyResponse:
    """A sampled transfer function ``H(f)`` of one output node."""

    frequencies_hz: list[float]
    transfer_values: list[complex]

    def magnitudes(self) -> list[float]:
        """|H| samples."""
        return [abs(h) for h in self.transfer_values]

    def magnitudes_db(self) -> list[float]:
        """20·log10|H| samples (floored at −300 dB)."""
        return [
            20.0 * math.log10(max(abs(h), 1e-15)) for h in self.transfer_values
        ]

    def peak(self) -> tuple[float, float]:
        """``(frequency, |H|)`` of the largest sampled magnitude."""
        magnitudes = self.magnitudes()
        index = int(np.argmax(magnitudes))
        return self.frequencies_hz[index], magnitudes[index]

    def at(self, frequency_hz: float) -> complex:
        """Nearest-sample lookup (for table rendering).

        The requested frequency must lie inside the swept range —
        nearest-sample extrapolation beyond the endpoints silently
        returns the edge value, which is never what a table wants, so
        it raises :class:`AnalogError` instead.
        """
        low = min(self.frequencies_hz)
        high = max(self.frequencies_hz)
        slack = 1e-9 * max(1.0, abs(high))
        if frequency_hz < low - slack or frequency_hz > high + slack:
            raise AnalogError(
                f"frequency {frequency_hz!r} Hz is outside the swept "
                f"range [{low!r}, {high!r}] Hz"
            )
        index = min(
            range(len(self.frequencies_hz)),
            key=lambda i: abs(self.frequencies_hz[i] - frequency_hz),
        )
        return self.transfer_values[index]


def transfer(
    circuit: AnalogCircuit,
    source_name: str,
    output_node: str,
    frequency_hz: float,
    backend: str | LinearSystemBackend = "auto",
) -> complex:
    """Voltage transfer ``v(output)/v(source)`` at one frequency.

    Evaluated by a compiled :class:`~repro.spice.acmodel.AcModel`, which
    drives the source at unit amplitude inside its own right-hand side:
    the circuit is only read, so concurrent calls on one circuit are
    safe.
    """
    return AcModel(circuit, source_name, output_node, backend=backend).transfer(
        frequency_hz
    )


def sweep(
    circuit: AnalogCircuit,
    source_name: str,
    output_node: str,
    frequencies_hz: Sequence[float],
    backend: str | LinearSystemBackend = "auto",
) -> FrequencyResponse:
    """Sample the transfer function over a frequency list.

    One compiled :class:`~repro.spice.acmodel.AcModel` evaluates every
    frequency (see :meth:`~repro.spice.acmodel.AcModel.transfers`); an
    empty list or a negative frequency raises :class:`AnalogError`.
    """
    frequencies = list(frequencies_hz)
    if not frequencies:
        raise AnalogError("a sweep needs at least one frequency")
    if any(f < 0 for f in frequencies):
        raise AnalogError("sweep frequencies must be >= 0")
    model = AcModel(circuit, source_name, output_node, backend=backend)
    return FrequencyResponse(frequencies, model.transfers(frequencies))


def log_frequencies(
    start_hz: float, stop_hz: float, points_per_decade: int = 20
) -> list[float]:
    """Logarithmically spaced frequency grid, inclusive of both ends."""
    if start_hz <= 0 or stop_hz <= start_hz:
        raise AnalogError("need 0 < start < stop for a log sweep")
    decades = math.log10(stop_hz / start_hz)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return list(np.logspace(math.log10(start_hz), math.log10(stop_hz), n))
