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
bit, without importing scipy.

A measurement is a *program*: a generator (the scope's ``*_steps``
methods) that yields each gain it needs as a ``(model, frequency)``
request and is sent ``|H|`` there.  :func:`lockstep` runs many programs
in rounds — say every bisection step of a deviation matrix, one program
per (parameter, element) search.  Each round advances every program to
its next request and answers all of the round's requests with one
:func:`~repro.spice.acmodel.batch_gains` call, a stacked solve over the
per-state matrices, so each refiner iteration of many states costs one
solve.  A new state's 120-point scan runs inside its program, one
stacked solve per state.  Two programs that need the same kept value do
not both compute it: the second waits (yields ``None``) until the first
has kept it.  Every value equals the one-program measurement's bit for
bit, since each state's search sees the same abscissae in the same order
and each stacked system is its own LAPACK solve.  The scalar methods
(:meth:`MeasurementScope.gain_at`, ...) and the one-shot functions below
run one program.  A scope is created by the call that measures many
states (a sensitivity or deviation matrix, the generator's stimulus
stage) and dies with it; a one-shot function is a scope of one
measurement.

The deviation state is an argument: ``deviations`` (element → relative
deviation, None = nominal) is the whole state of this one measurement,
validated by :meth:`~repro.spice.AnalogCircuit.deviation_state`.  A
scope keys what it keeps on that state.  The circuit is never written,
so one circuit can be measured at many deviation states from many
threads at once (one scope per thread).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Generator, Iterable

import numpy as np

from ._refine import bounded_minimum_steps, brent_root_steps
from .acmodel import AcModel, batch_gains
from .netlist import AnalogCircuit, AnalogError

__all__ = [
    "MeasurementScope",
    "lockstep",
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

#: A measurement program: yields ``(model, frequency)`` gain requests (or
#: ``None`` to wait a round), is sent each ``|H|``, returns its value.
Program = Generator[tuple[AcModel, float] | None, float, object]


def _check_window(f_low: float, f_high: float) -> None:
    if f_low <= 0 or f_high <= f_low:
        raise AnalogError("need 0 < f_low < f_high")


def _search(steps, model: AcModel, value):
    """Program: a refiner's step generator over log-frequency; abscissa
    ``x`` is the gain request ``(model, 10**x)``, answered with
    ``value(|H|)``."""
    try:
        x = next(steps)
        while True:
            x = steps.send(value((yield model, 10.0**x)))
    except StopIteration as stop:
        return stop.value


def _peak(
    model: AcModel, f_low: float, f_high: float, coarse_points: int = 120
):
    """Program: coarse log scan (one stacked solve) + golden-section
    refine; returns ``(f_peak, |H|_peak)``."""
    log_low, log_high = math.log10(f_low), math.log10(f_high)
    # log_low + (log_high − log_low)·index/(coarse_points − 1), the same
    # IEEE operations in the same order for every index at once
    log_grid = (
        log_low
        + (log_high - log_low) * np.arange(coarse_points) / (coarse_points - 1)
    ).tolist()
    best_log_f, best_mag = log_low, -1.0
    for log_f, magnitude in zip(
        log_grid, model.gains([10.0**log_f for log_f in log_grid])
    ):
        if magnitude > best_mag:
            best_mag, best_log_f = magnitude, log_f
    step = (log_high - log_low) / (coarse_points - 1)
    bracket_low = max(log_low, best_log_f - 2 * step)
    bracket_high = min(log_high, best_log_f + 2 * step)
    log_f_peak, least, _ = yield from _search(
        bounded_minimum_steps(bracket_low, bracket_high, xatol=1e-7),
        model,
        lambda gain: -gain,
    )
    # The refine's best value is −|H| at its best abscissa, whose
    # frequency is ``f_peak`` bit for bit: the peak gain, already solved.
    return 10.0**log_f_peak, float(-least)


def _crossing(model: AcModel, target: float, f_a: float, f_b: float):
    """Program: root of |H(f)| − target on [f_a, f_b] (log-f Brent)."""
    root, _ = yield from _search(
        brent_root_steps(math.log10(f_a), math.log10(f_b), xtol=1e-9),
        model,
        lambda gain: gain - target,
    )
    return 10.0**root


def lockstep(programs: Iterable[Program]) -> list:
    """Run measurement programs together; what each returns, in order.

    Each round sends every live program the answer to its last request
    and collects its next one; the round's gain requests are answered
    by one :func:`~repro.spice.acmodel.batch_gains` call (a gain that
    raises is thrown into its program), a ``None`` request by ``None``.

    An error escapes as running the programs one after another would
    raise it: once program ``k`` raises, the programs after it are
    closed, the programs before it run to their end, and the error of
    the first program that raised is raised.
    """
    programs = list(programs)
    results: list = [None] * len(programs)
    failed, error = len(programs), None
    pending: list[tuple[int, object]] = [
        (index, None) for index in range(len(programs))
    ]
    while pending:
        requests = []
        progressed = False
        for index, answer in pending:
            if index > failed:
                programs[index].close()
                progressed = True
                continue
            try:
                if isinstance(answer, AnalogError):
                    request = programs[index].throw(answer)
                else:
                    request = programs[index].send(answer)
            except StopIteration as stop:
                results[index] = stop.value
                progressed = True
            except Exception as exc:  # noqa: BLE001 — re-raised below
                # Rounds go in index order: every program answered so
                # far this round comes before this one.
                failed, error = index, exc
                progressed = True
            else:
                requests.append((index, request))
                progressed = progressed or request is not None
        if not progressed:
            raise RuntimeError("every measurement program waits on another")
        answers = iter(
            batch_gains([request for _, request in requests if request])
        )
        pending = [
            (index, next(answers) if request else None)
            for index, request in requests
        ]
    if error is not None:
        raise error
    return results


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
    latest derived one are held.  Each measurement is a program (the
    ``*_steps`` methods) for :func:`lockstep`; a value another running
    program is computing is waited for, not computed twice.  A scope
    never writes the circuit; it is meant to live for one call and not
    to be shared between threads.
    """

    def __init__(self, circuit: AnalogCircuit):
        self.circuit = circuit
        self._compiled: dict[tuple[str, str], AcModel] = {}
        self._latest: tuple[tuple, AcModel] | None = None
        self._values: dict[tuple, object] = {}
        self._computing: set[tuple] = set()

    def _key(self, source: str, output: str, deviations: Deviations) -> tuple:
        """(source, output, the validated deviation state, sorted)."""
        state = self.circuit.deviation_state(deviations)
        return (source, output, tuple(sorted(state.items())))

    def _model(self, key: tuple, deviations: Deviations) -> AcModel:
        """The model of ``key``; the latest one is reused, so a
        measurement following another of the same state derives none."""
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
        """Program: the value kept under ``key``, else what the program
        ``compute()`` returns, kept; waits while another program
        computes it.  A failed computation keeps nothing."""
        while key in self._computing:
            yield None
        try:
            return self._values[key]
        except KeyError:
            pass
        self._computing.add(key)
        try:
            value = self._values[key] = yield from compute()
        finally:
            self._computing.discard(key)
        return value

    def _peak_steps(self, key, f_low, f_high, coarse_points, model):
        return self._kept(
            ("peak", key, _exact(f_low, f_high, coarse_points)),
            lambda: _peak(model(), f_low, f_high, coarse_points),
        )

    def gain_at_steps(
        self,
        source: str,
        output: str,
        frequency_hz: float,
        deviations: Deviations = None,
    ) -> Program:
        """Program of :meth:`gain_at`."""
        key = self._key(source, output, deviations)

        def gain():
            return (yield self._model(key, deviations), frequency_hz)

        return self._kept(("gain", key, _exact(frequency_hz)), gain)

    def peak_gain_steps(
        self,
        source: str,
        output: str,
        f_low: float = 1.0,
        f_high: float = 1.0e7,
        coarse_points: int = 120,
        deviations: Deviations = None,
    ) -> Program:
        """Program of :meth:`peak_gain`."""
        _check_window(f_low, f_high)
        if coarse_points < 2:
            raise AnalogError(f"need coarse_points >= 2, got {coarse_points!r}")
        key = self._key(source, output, deviations)
        return self._peak_steps(
            key, f_low, f_high, coarse_points,
            lambda: self._model(key, deviations),
        )

    def cutoff_steps(
        self,
        source: str,
        output: str,
        high_side: bool,
        f_low: float = 1.0,
        f_high: float = 1.0e7,
        reference: float | None = None,
        deviations: Deviations = None,
    ) -> Program:
        """Program of :meth:`cutoff`."""
        _check_window(f_low, f_high)
        key = self._key(source, output, deviations)
        # The peak and the crossing search one model, derived once.
        model = functools.cache(lambda: self._model(key, deviations))
        return self._cutoff_steps(
            key, high_side, f_low, f_high, reference, model
        )

    def _cutoff_steps(self, key, high_side, f_low, f_high, reference, model):
        f_peak, peak = yield from self._peak_steps(
            key, f_low, f_high, 120, model
        )

        def crossing():
            target = (reference if reference is not None else peak) / _SQRT2
            end = f_high if high_side else f_low
            if (yield model(), end) >= target:
                side = "high" if high_side else "low"
                raise AnalogError(f"response has no {side}-side -3 dB crossing")
            if high_side:
                return (yield from _crossing(model(), target, f_peak, f_high))
            return (yield from _crossing(model(), target, f_low, f_peak))

        return (
            yield from self._kept(
                ("cutoff", high_side, key, _exact(f_low, f_high, reference)),
                crossing,
            )
        )

    def gain_at(
        self,
        source: str,
        output: str,
        frequency_hz: float,
        deviations: Deviations = None,
    ) -> float:
        """|H(f)| — AC gain magnitude at one frequency (DC at ``0.0``)."""
        return lockstep(
            [self.gain_at_steps(source, output, frequency_hz, deviations)]
        )[0]

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
        return lockstep(
            [
                self.peak_gain_steps(
                    source, output, f_low, f_high, coarse_points, deviations
                )
            ]
        )[0]

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
        return lockstep(
            [
                self.cutoff_steps(
                    source, output, high_side, f_low, f_high, reference,
                    deviations,
                )
            ]
        )[0]


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
