"""Performance-parameter measurements on analog circuits.

These are the measurable quantities the paper's analog test method selects
among (its Table 2 notation): DC gain ``Adc``, AC gain at a frequency
``A_f``, maximum AC gain ``Amax`` and its frequency (the center frequency
``f0`` of a band-pass), and the −3 dB low/high cut-off frequencies
``flcf``/``fhcf``.

Each measurement compiles the circuit once into an
:class:`~repro.spice.acmodel.AcModel` and evaluates ``|H(f)|`` on it:
the peak search is a 120-point log-frequency scan solved as one stacked
system, refined by a bounded golden-section search on the same model;
the cut-offs add the end-of-window checks and a log-frequency Brent
root search, again on the same model.

The deviation state is an argument: ``deviations`` (element → relative
deviation) is laid over the circuit's own deviations for this one
measurement (:meth:`~repro.spice.AnalogCircuit.deviation_state`).  The
circuit is never written, so one circuit can be measured at many
deviation states from many threads at once.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq, minimize_scalar

from .acmodel import AcModel
from .netlist import AnalogCircuit, AnalogError

__all__ = [
    "dc_gain",
    "gain_at",
    "peak_gain",
    "center_frequency",
    "cutoff_low",
    "cutoff_high",
    "bandwidth",
]

#: −3 dB: the cut-off magnitude is the reference divided by √2.
_SQRT2 = math.sqrt(2.0)

Deviations = dict[str, float] | None


def dc_gain(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    deviations: Deviations = None,
) -> float:
    """|H(0)| — the DC gain magnitude."""
    return AcModel(circuit, source, output, deviations).gain(0.0)


def gain_at(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    frequency_hz: float,
    deviations: Deviations = None,
) -> float:
    """|H(f)| — AC gain magnitude at one frequency."""
    return AcModel(circuit, source, output, deviations).gain(frequency_hz)


def _check_window(f_low: float, f_high: float) -> None:
    if f_low <= 0 or f_high <= f_low:
        raise AnalogError("need 0 < f_low < f_high")


def _peak(
    model: AcModel, f_low: float, f_high: float, coarse_points: int = 120
) -> tuple[float, float]:
    """Coarse log scan (one stacked solve) + golden-section refine."""
    log_low, log_high = math.log10(f_low), math.log10(f_high)
    log_grid = [
        log_low + (log_high - log_low) * index / (coarse_points - 1)
        for index in range(coarse_points)
    ]
    best_log_f, best_mag = log_low, -1.0
    for log_f, magnitude in zip(
        log_grid, model.gains([10.0**log_f for log_f in log_grid])
    ):
        if magnitude > best_mag:
            best_mag, best_log_f = magnitude, log_f
    step = (log_high - log_low) / (coarse_points - 1)
    bracket_low = max(log_low, best_log_f - 2 * step)
    bracket_high = min(log_high, best_log_f + 2 * step)
    result = minimize_scalar(
        lambda lf: -model.gain(10.0**lf),
        bounds=(bracket_low, bracket_high),
        method="bounded",
        options={"xatol": 1e-7},
    )
    f_peak = 10.0**result.x
    return f_peak, model.gain(f_peak)


def peak_gain(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    coarse_points: int = 120,
    deviations: Deviations = None,
) -> tuple[float, float]:
    """``(f_peak, |H|_peak)`` via coarse log scan + golden-section refine."""
    _check_window(f_low, f_high)
    if coarse_points < 2:
        raise AnalogError(f"need coarse_points >= 2, got {coarse_points!r}")
    model = AcModel(circuit, source, output, deviations)
    return _peak(model, f_low, f_high, coarse_points)


def center_frequency(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    deviations: Deviations = None,
) -> float:
    """Frequency of maximum gain (the band-pass center frequency ``f0``)."""
    f_peak, _ = peak_gain(
        circuit, source, output, f_low, f_high, deviations=deviations
    )
    return f_peak


def _crossing(model: AcModel, target: float, f_a: float, f_b: float) -> float:
    """Root of |H(f)| − target on [f_a, f_b] (log-f Brent)."""

    def objective(log_f: float) -> float:
        return model.gain(10.0**log_f) - target

    return 10.0 ** brentq(
        objective, math.log10(f_a), math.log10(f_b), xtol=1e-9
    )


def _cutoff(
    model: AcModel,
    high_side: bool,
    f_low: float,
    f_high: float,
    reference: float | None,
) -> float:
    """The −3 dB crossing on one side of the response peak."""
    f_peak, peak = _peak(model, f_low, f_high)
    target = (reference if reference is not None else peak) / _SQRT2
    end = f_high if high_side else f_low
    if model.gain(end) >= target:
        side = "high" if high_side else "low"
        raise AnalogError(f"response has no {side}-side -3 dB crossing")
    if high_side:
        return _crossing(model, target, f_peak, f_high)
    return _crossing(model, target, f_low, f_peak)


def cutoff_low(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    reference: float | None = None,
    deviations: Deviations = None,
) -> float:
    """Low −3 dB cut-off: the crossing *below* the response peak.

    ``reference`` overrides the reference gain (defaults to the peak gain);
    raises if the response never falls below reference/√2 on the low side
    (e.g. a low-pass has no low cut-off).
    """
    _check_window(f_low, f_high)
    model = AcModel(circuit, source, output, deviations)
    return _cutoff(model, False, f_low, f_high, reference)


def cutoff_high(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    reference: float | None = None,
    deviations: Deviations = None,
) -> float:
    """High −3 dB cut-off: the crossing *above* the response peak."""
    _check_window(f_low, f_high)
    model = AcModel(circuit, source, output, deviations)
    return _cutoff(model, True, f_low, f_high, reference)


def bandwidth(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    deviations: Deviations = None,
) -> float:
    """−3 dB bandwidth ``fhcf − flcf`` of a band-pass response."""
    _check_window(f_low, f_high)
    model = AcModel(circuit, source, output, deviations)
    return _cutoff(model, True, f_low, f_high, None) - _cutoff(
        model, False, f_low, f_high, None
    )
