"""Performance parameters of an analog block.

A *performance parameter* ``T`` is a measurable scalar of the circuit —
DC gain, AC gain at 10 kHz, center frequency, a cut-off frequency...  The
paper's analog test method (section 2.1) chooses, per element, the
parameter whose deviation best exposes an element deviation; and its
Table 1 chooses the analog stimulus per the *kind* of the targeted
parameter, so each parameter records its kind explicitly.

A parameter is measured on a :class:`~repro.spice.MeasurementScope`:
the caller that measures many deviation states passes one scope, so
the circuit is compiled once and every parameter of a state shares that
state's peak search; without one, each call is a scope of its own.
:meth:`PerformanceParameter.measure_steps` is the same measurement as a
program, for callers that measure many states in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..spice import AnalogCircuit, MeasurementScope, lockstep

__all__ = ["ParameterKind", "PerformanceParameter", "standard_filter_parameters"]


class ParameterKind(str, Enum):
    """The parameter taxonomy of the paper's Tables 1 and 2."""

    DC_GAIN = "Adc"
    AC_GAIN = "Aac"  # gain at a specific frequency f
    PEAK_GAIN = "Amax"
    CENTER_FREQUENCY = "f0"
    CUTOFF_LOW = "flcf"
    CUTOFF_HIGH = "fhcf"


@dataclass(frozen=True)
class PerformanceParameter:
    """One measurable performance parameter of an analog circuit.

    Attributes:
        name: report label (``"A1"``, ``"fc1"``, ...).
        kind: the Table 1/2 category driving stimulus selection.
        source: name of the driving voltage source.
        output: observed node.
        frequency_hz: measurement frequency (AC_GAIN only).
        f_low / f_high: search window for frequency-domain parameters.
    """

    name: str
    kind: ParameterKind
    source: str
    output: str
    frequency_hz: float | None = None
    f_low: float = 1.0
    f_high: float = 1.0e7

    def measure(
        self,
        circuit: AnalogCircuit,
        deviations: dict[str, float] | None = None,
        *,
        scope: MeasurementScope | None = None,
    ) -> float:
        """Measure the parameter at a deviation state.

        ``deviations`` (element → relative deviation, None = nominal)
        is the state of this measurement only; the circuit is read,
        never written.  ``scope`` (a scope of ``circuit``) shares
        compiled models, peaks and values with the caller's other
        measurements.
        """
        if scope is None:
            scope = MeasurementScope(circuit)
        program = self.measure_steps(circuit, deviations, scope=scope)
        return lockstep([program])[0]

    def measure_steps(
        self,
        circuit: AnalogCircuit,
        deviations: dict[str, float] | None = None,
        *,
        scope: MeasurementScope,
    ):
        """:meth:`measure` as a measurement program for
        :func:`~repro.spice.lockstep` (see :mod:`repro.spice.measure`)."""
        if scope.circuit is not circuit:
            raise ValueError(
                f"parameter {self.name}: the scope measures another circuit"
            )
        window = (self.f_low, self.f_high)
        args = (self.source, self.output)
        if self.kind is ParameterKind.DC_GAIN:
            return scope.gain_at_steps(*args, 0.0, deviations)
        if self.kind is ParameterKind.AC_GAIN:
            if self.frequency_hz is None:
                raise ValueError(f"parameter {self.name}: AC gain needs a frequency")
            return scope.gain_at_steps(*args, self.frequency_hz, deviations)
        if self.kind is ParameterKind.PEAK_GAIN:
            return _item(
                scope.peak_gain_steps(*args, *window, deviations=deviations), 1
            )
        if self.kind is ParameterKind.CENTER_FREQUENCY:
            return _item(
                scope.peak_gain_steps(*args, *window, deviations=deviations), 0
            )
        if self.kind is ParameterKind.CUTOFF_LOW:
            return scope.cutoff_steps(*args, False, *window, deviations=deviations)
        if self.kind is ParameterKind.CUTOFF_HIGH:
            return scope.cutoff_steps(*args, True, *window, deviations=deviations)
        raise ValueError(f"unknown parameter kind {self.kind}")


def _item(program, index: int):
    """Program: item ``index`` of what ``program`` returns."""
    return (yield from program)[index]


def standard_filter_parameters(
    source: str,
    output: str,
    ac_frequency_hz: float = 10_000.0,
    f_low: float = 10.0,
    f_high: float = 1.0e6,
    band_pass: bool = True,
) -> list[PerformanceParameter]:
    """The paper's Example 1 parameter set for a second-order filter.

    ``A1`` center-frequency (peak) gain, ``A2`` gain at 10 kHz, ``f0``
    center frequency, ``fc1``/``fc2`` low/high cut-offs.  For a low-pass
    (``band_pass=False``) the set degrades to DC gain, AC gain and the
    high cut-off.
    """
    if band_pass:
        return [
            PerformanceParameter(
                "A1", ParameterKind.PEAK_GAIN, source, output,
                f_low=f_low, f_high=f_high,
            ),
            PerformanceParameter(
                "A2", ParameterKind.AC_GAIN, source, output,
                frequency_hz=ac_frequency_hz,
            ),
            PerformanceParameter(
                "f0", ParameterKind.CENTER_FREQUENCY, source, output,
                f_low=f_low, f_high=f_high,
            ),
            PerformanceParameter(
                "fc1", ParameterKind.CUTOFF_LOW, source, output,
                f_low=f_low, f_high=f_high,
            ),
            PerformanceParameter(
                "fc2", ParameterKind.CUTOFF_HIGH, source, output,
                f_low=f_low, f_high=f_high,
            ),
        ]
    return [
        PerformanceParameter("Adc", ParameterKind.DC_GAIN, source, output),
        PerformanceParameter(
            "Aac", ParameterKind.AC_GAIN, source, output,
            frequency_hz=ac_frequency_hz,
        ),
        PerformanceParameter(
            "fc", ParameterKind.CUTOFF_HIGH, source, output,
            f_low=f_low, f_high=f_high,
        ),
    ]
