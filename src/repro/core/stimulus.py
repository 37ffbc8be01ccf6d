"""Table 1: choosing the analog stimulus that activates a parameter fault.

For every parameter kind ``T`` and tested bound (upper ``T>`` or lower
``T<``), Table 1 of the paper prescribes the sine ``(A, f)`` to apply at
the analog primary input so that a comparator referenced at ``Vref``
reads a *different* logic value in the fault-free and the faulty circuit
— producing the composite value ``D`` or ``D̄`` on the corresponding
digital line:

* **DC gain** (``ADC``): a DC level ``B = Vref / ((1±x)·ADCn)``; a gain
  past the tested bound moves the converter input across ``Vref``.
* **AC gain at f** (``AAC``): same amplitude rule at the measurement
  frequency.
* **cut-off frequencies** (``flcf``/``fhcf``): apply the *nominal*
  cut-off frequency and exploit the gain/frequency exchange: an ``x``
  shift of the cut-off moves the gain at ``f`` by ``y``, so
  ``B = Vref / ((1∓y)·A_fn)``.
* **center frequency** (``f0``) and **peak gain**: measured at the peak;
  a shifted peak drops the gain at the nominal ``f0``, reusing the
  cut-off rule with the locally-quadratic exchange rate.

The exchange rate ``y`` is not guessed: it is *measured* on the model by
re-measuring the gain with the circuit detuned (paper: "a deviation of
x[%] in the frequency causes a deviation of y[%] in the gain").

Every measurement goes through a :class:`~repro.spice.MeasurementScope`;
the generator passes one for all of its stimulus choices, so the
nominal peak and gains are measured once rather than per comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..analog import ParameterKind, PerformanceParameter
from ..atpg import AnalogStimulus, CompositeValue
from ..spice import AnalogCircuit, MeasurementScope

__all__ = ["Bound", "StimulusChoice", "choose_stimulus", "gain_exchange_rate"]


class Bound(str, Enum):
    """Which side of the tolerance box a test vector checks."""

    UPPER = ">"
    LOWER = "<"


@dataclass(frozen=True)
class StimulusChoice:
    """One Table 1 row: the stimulus plus the expected comparator values."""

    parameter: str
    kind: ParameterKind
    bound: Bound
    stimulus: AnalogStimulus
    #: comparator logic value in the fault-free circuit.
    good_value: int
    #: comparator logic value when the parameter is past the bound.
    faulty_value: int

    @property
    def composite(self) -> CompositeValue:
        """The composite value carried by the comparator's line."""
        if self.good_value == 1 and self.faulty_value == 0:
            return CompositeValue.D
        if self.good_value == 0 and self.faulty_value == 1:
            return CompositeValue.D_BAR
        raise ValueError("stimulus does not split good/faulty values")


def gain_exchange_rate(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    x: float,
    scope: MeasurementScope | None = None,
) -> float:
    """Measured ``y``: relative gain change at ``f`` for an ``x`` shift of ``f``.

    For frequency-domain parameters the paper trades a frequency deviation
    for a gain deviation at a fixed test frequency.  We measure it on the
    model: evaluate the gain at ``f·(1±x)`` and take the larger relative
    change — no small-signal approximation needed.
    """
    if scope is None:
        scope = MeasurementScope(circuit)
    frequency = _test_frequency(circuit, parameter, scope)
    nominal = scope.gain_at(parameter.source, parameter.output, frequency)
    if nominal == 0:
        raise ValueError(f"zero gain at {frequency} Hz; cannot form y")
    shifts = []
    for sign in (+1.0, -1.0):
        shifted = scope.gain_at(
            parameter.source, parameter.output, frequency * (1.0 + sign * x)
        )
        shifts.append(abs(shifted - nominal) / nominal)
    return max(shifts)


def _test_frequency(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    scope: MeasurementScope,
) -> float:
    """The stimulus frequency for each parameter kind (Table 1's ``f``)."""
    if parameter.kind is ParameterKind.DC_GAIN:
        return 0.0
    if parameter.kind is ParameterKind.AC_GAIN:
        assert parameter.frequency_hz is not None
        return parameter.frequency_hz
    if parameter.kind in (ParameterKind.PEAK_GAIN, ParameterKind.CENTER_FREQUENCY):
        return scope.peak_gain(
            parameter.source, parameter.output,
            parameter.f_low, parameter.f_high,
        )[0]
    # Cut-off parameters: stimulate at the parameter's nominal value
    # (the paper applies the nominal cut-off frequency).
    return parameter.measure(circuit, scope=scope)


def choose_stimulus(
    circuit: AnalogCircuit,
    parameter: PerformanceParameter,
    bound: Bound,
    vref: float,
    x: float = 0.05,
    scope: MeasurementScope | None = None,
) -> StimulusChoice:
    """Build the Table 1 stimulus for one (parameter, bound) pair.

    Args:
        circuit: the analog block at its *nominal* state.
        parameter: the targeted performance parameter.
        bound: which tolerance-box edge the vector checks.
        vref: threshold voltage of the observing comparator.
        x: the parameter tolerance (paper: 5 %).
        scope: the caller's measurement scope, shared across its
            choices; without one the choice measures on its own.

    Returns:
        the stimulus and expected good/faulty comparator values.

    The amplitude is chosen so the *fault-free* peak sits just on the
    detectable side of ``Vref`` while a parameter past the tested bound
    moves it across; which side is "good" flips between the two bounds,
    giving ``D`` for one and ``D̄`` for the other exactly as in the
    paper's Table 1.
    """
    if scope is None:
        scope = MeasurementScope(circuit)
    frequency = _test_frequency(circuit, parameter, scope)
    reference_gain = scope.gain_at(parameter.source, parameter.output, frequency)
    if parameter.kind in (ParameterKind.DC_GAIN, ParameterKind.AC_GAIN,
                          ParameterKind.PEAK_GAIN):
        margin = x
    else:
        margin = gain_exchange_rate(circuit, parameter, x, scope)
    if reference_gain <= 0:
        raise ValueError(
            f"parameter {parameter.name}: non-positive gain at the "
            f"stimulus frequency"
        )

    if bound is Bound.UPPER:
        # Good peak just *below* Vref; a gain above (1+margin)·nominal
        # crosses upward: good 0, faulty 1 -> D̄.
        amplitude = vref / ((1.0 + margin / 2.0) * reference_gain)
        good_value, faulty_value = 0, 1
        # Ensure the faulty circuit (gain ≥ (1+margin)·ref) crosses:
        # (1+margin)·ref·A = Vref·(1+margin)/(1+margin/2) > Vref ✓
    else:
        # Good peak just *above* Vref; a gain below (1−margin)·nominal
        # drops under: good 1, faulty 0 -> D.
        amplitude = vref / ((1.0 - margin / 2.0) * reference_gain)
        good_value, faulty_value = 1, 0

    description = (
        f"test {parameter.name} {bound.value} bound via Vref={vref:.4g} V"
    )
    return StimulusChoice(
        parameter=parameter.name,
        kind=parameter.kind,
        bound=bound,
        stimulus=AnalogStimulus(amplitude, frequency, description),
        good_value=good_value,
        faulty_value=faulty_value,
    )
