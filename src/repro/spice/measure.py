"""Performance-parameter measurements on analog circuits.

These are the measurable quantities the paper's analog test method selects
among (its Table 2 notation): DC gain ``Adc``, AC gain at a frequency
``A_f``, maximum AC gain ``Amax`` and its frequency (the center frequency
``f0`` of a band-pass), and the −3 dB low/high cut-off frequencies
``flcf``/``fhcf``.

Measurements run on a :class:`MeasurementScope`: it compiles one
:class:`~repro.spice.acmodel.AcModel` per (source, output), derives every
other deviation state from it as a stamp delta
(:meth:`~repro.spice.acmodel.AcModel.at_state`), and measures each
distinct state once: the peak search (a 120-point log-frequency scan
solved as one stacked system, refined by a bounded golden-section
search) is shared by every parameter kind that needs it, and each
measured value is kept.  The cut-offs add the end-of-window checks and a
log-frequency Brent root search on the same model.  Both refiners live
in :mod:`repro.spice._refine` and return what scipy's
``minimize_scalar(method="bounded")`` and ``brentq`` return, bit for
bit, without importing scipy.  A scope is created by the call that
measures many states (a sensitivity or deviation matrix, the
generator's stimulus stage) and dies with it; the one-shot functions
below are a scope of one measurement.

The deviation state is an argument: ``deviations`` (element → relative
deviation, None = nominal) is the whole state of this one measurement,
validated by :meth:`~repro.spice.AnalogCircuit.deviation_state`.  A
scope keys what it keeps on that state.  The circuit is never written,
so one circuit can be measured at many deviation states from many
threads at once (one scope per thread).
"""

from __future__ import annotations

import math

from ._refine import bounded_minimum, brent_root
from .acmodel import AcModel
from .netlist import AnalogCircuit, AnalogError

__all__ = [
    "MeasurementScope",
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
    log_f_peak, _, _ = bounded_minimum(
        lambda lf: -model.gain(10.0**lf), bracket_low, bracket_high, xatol=1e-7
    )
    f_peak = 10.0**log_f_peak
    return f_peak, model.gain(f_peak)


def _crossing(model: AcModel, target: float, f_a: float, f_b: float) -> float:
    """Root of |H(f)| − target on [f_a, f_b] (log-f Brent)."""

    def objective(log_f: float) -> float:
        return model.gain(10.0**log_f) - target

    root, _ = brent_root(
        objective, math.log10(f_a), math.log10(f_b), xtol=1e-9
    )
    return 10.0**root


def _exact(*values) -> tuple:
    """Key form of numeric arguments: equal values of different types
    (``1`` and ``1.0``, a numpy scalar and a float) stay distinct, since
    the frequency's own type takes part in forming ``s``."""
    return tuple((type(value), value) for value in values)


class MeasurementScope:
    """Measures one circuit at many deviation states, each state once.

    The first measurement of a (source, output) pair compiles its
    :class:`AcModel`; every later state is derived from that model by
    :meth:`AcModel.at_state`.  Peaks (per state and search window) and
    measured values are kept as scalars, keyed on the validated
    deviation state, so e.g. ``Amax``, ``f0`` and both cut-offs of one
    state share one peak search.  Only the compiled models and the
    latest derived one are held.  A scope never writes the circuit; it
    is meant to live for one call and not to be shared between threads.
    """

    def __init__(self, circuit: AnalogCircuit):
        self.circuit = circuit
        self._compiled: dict[tuple[str, str], AcModel] = {}
        self._latest: tuple[tuple, AcModel] | None = None
        self._values: dict[tuple, object] = {}

    def _key(self, source: str, output: str, deviations: Deviations) -> tuple:
        """(source, output, the validated deviation state, sorted)."""
        state = self.circuit.deviation_state(deviations)
        return (source, output, tuple(sorted(state.items())))

    def _model(self, key: tuple, deviations: Deviations) -> AcModel:
        """The model of ``key``; the latest one is reused, so a cut-off
        searches its peak and its crossing on one derived model."""
        if self._latest is not None and self._latest[0] == key:
            return self._latest[1]
        source, output = key[:2]
        compiled = self._compiled.get((source, output))
        if compiled is None:
            model = AcModel(self.circuit, source, output, deviations)
            self._compiled[(source, output)] = model
        else:
            model = compiled.at_state(deviations)
        self._latest = (key, model)
        return model

    def _kept(self, key: tuple, compute):
        try:
            return self._values[key]
        except KeyError:
            value = self._values[key] = compute()
            return value

    def gain_at(
        self,
        source: str,
        output: str,
        frequency_hz: float,
        deviations: Deviations = None,
    ) -> float:
        """|H(f)| — AC gain magnitude at one frequency (DC at ``0.0``)."""
        key = self._key(source, output, deviations)
        return self._kept(
            ("gain", key, _exact(frequency_hz)),
            lambda: self._model(key, deviations).gain(frequency_hz),
        )

    def peak_gain(
        self,
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
        key = self._key(source, output, deviations)
        return self._kept(
            ("peak", key, _exact(f_low, f_high, coarse_points)),
            lambda: _peak(
                self._model(key, deviations), f_low, f_high, coarse_points
            ),
        )

    def cutoff(
        self,
        source: str,
        output: str,
        high_side: bool,
        f_low: float = 1.0,
        f_high: float = 1.0e7,
        reference: float | None = None,
        deviations: Deviations = None,
    ) -> float:
        """The −3 dB crossing above (``high_side``) or below the response
        peak (see :func:`cutoff_low`)."""
        f_peak, peak = self.peak_gain(
            source, output, f_low, f_high, deviations=deviations
        )
        key = self._key(source, output, deviations)

        def crossing() -> float:
            model = self._model(key, deviations)
            target = (reference if reference is not None else peak) / _SQRT2
            end = f_high if high_side else f_low
            if model.gain(end) >= target:
                side = "high" if high_side else "low"
                raise AnalogError(f"response has no {side}-side -3 dB crossing")
            if high_side:
                return _crossing(model, target, f_peak, f_high)
            return _crossing(model, target, f_low, f_peak)

        return self._kept(
            ("cutoff", high_side, key, _exact(f_low, f_high, reference)),
            crossing,
        )


# ----------------------------------------------------------------------
# One-shot measurements: a scope of one
# ----------------------------------------------------------------------
def dc_gain(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    deviations: Deviations = None,
) -> float:
    """|H(0)| — the DC gain magnitude."""
    return MeasurementScope(circuit).gain_at(source, output, 0.0, deviations)


def gain_at(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    frequency_hz: float,
    deviations: Deviations = None,
) -> float:
    """|H(f)| — AC gain magnitude at one frequency."""
    return MeasurementScope(circuit).gain_at(
        source, output, frequency_hz, deviations
    )


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
    return MeasurementScope(circuit).peak_gain(
        source, output, f_low, f_high, coarse_points, deviations
    )


def center_frequency(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    deviations: Deviations = None,
) -> float:
    """Frequency of maximum gain (the band-pass center frequency ``f0``)."""
    return MeasurementScope(circuit).peak_gain(
        source, output, f_low, f_high, deviations=deviations
    )[0]


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
    return MeasurementScope(circuit).cutoff(
        source, output, False, f_low, f_high, reference, deviations
    )


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
    return MeasurementScope(circuit).cutoff(
        source, output, True, f_low, f_high, reference, deviations
    )


def bandwidth(
    circuit: AnalogCircuit,
    source: str,
    output: str,
    f_low: float = 1.0,
    f_high: float = 1.0e7,
    deviations: Deviations = None,
) -> float:
    """−3 dB bandwidth ``fhcf − flcf`` of a band-pass response."""
    scope = MeasurementScope(circuit)
    return scope.cutoff(
        source, output, True, f_low, f_high, deviations=deviations
    ) - scope.cutoff(source, output, False, f_low, f_high, deviations=deviations)
