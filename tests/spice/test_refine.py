"""Differential tests: the in-repo refiners against the installed scipy.

:func:`~repro.spice._refine.bounded_minimum` must reproduce
``scipy.optimize.minimize_scalar(method="bounded")`` and
:func:`~repro.spice._refine.brent_root` must reproduce
``scipy.optimize.brentq`` bit for bit: the returned abscissa and
function value with their types, the evaluation count, and every
abscissa handed to the objective, in order and with its type (the
compiled model's ``s`` depends on the frequency's own type).  scipy is
the reference here and is imported by this test only.

The objectives are the real ones: every peak search and −3 dB crossing
:mod:`repro.spice.measure` runs for the fig4 deviation matrix (Example
1) and for every parameter of the band-pass, Chebyshev and
state-variable filters at a set of random deviation states.  A
hypothesis sweep adds brackets over smooth functions, and the error
modes (same-sign bracket, NaN, non-convergence) must raise alike.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from repro.analog import deviation_matrix
from repro.circuits import (
    bandpass_filter,
    bandpass_parameters,
    chebyshev_filter,
    chebyshev_parameters,
    fig4_mixed_circuit,
    state_variable_filter,
    state_variable_parameters,
)
from repro.spice import AnalogError, MeasurementScope, measure
from repro.spice._refine import bounded_minimum, brent_root


def _bits(value):
    """A float's exact identity: its type and its bits."""
    return type(value), float(value).hex()


def _logged(func):
    """``func`` plus the list of ``_bits`` of every abscissa it is given."""
    seen = []

    def call(x):
        seen.append(_bits(x))
        return func(x)

    return call, seen


def assert_minimum_matches_scipy(func, lower, upper, xatol, maxfun=500):
    ours_func, ours_seen = _logged(func)
    scipy_func, scipy_seen = _logged(func)
    x, fun, nfev = bounded_minimum(ours_func, lower, upper, xatol, maxfun)
    result = minimize_scalar(
        scipy_func,
        bounds=(lower, upper),
        method="bounded",
        options={"xatol": xatol, "maxiter": maxfun},
    )
    assert (_bits(x), _bits(fun), nfev) == (
        _bits(result.x), _bits(result.fun), result.nfev
    )
    assert ours_seen == scipy_seen
    return x, fun, nfev


def assert_root_matches_scipy(func, xa, xb, xtol, maxiter=100):
    ours_func, ours_seen = _logged(func)
    scipy_func, scipy_seen = _logged(func)
    root, calls = brent_root(ours_func, xa, xb, xtol, maxiter)
    expected, info = brentq(
        scipy_func, xa, xb, xtol=xtol, maxiter=maxiter, full_output=True
    )
    assert (_bits(root), calls) == (_bits(expected), info.function_calls)
    assert ours_seen == scipy_seen
    return root, calls


@pytest.fixture
def differential(monkeypatch):
    """Route :mod:`repro.spice.measure`'s refiners through the checks
    above; yields the count of searches checked per refiner."""
    checked = {"peak": 0, "crossing": 0}

    def minimum(func, lower, upper, xatol, maxfun=500):
        checked["peak"] += 1
        return assert_minimum_matches_scipy(func, lower, upper, xatol, maxfun)

    def root(func, xa, xb, xtol, maxiter=100):
        checked["crossing"] += 1
        return assert_root_matches_scipy(func, xa, xb, xtol, maxiter)

    monkeypatch.setattr(measure, "bounded_minimum", minimum)
    monkeypatch.setattr(measure, "brent_root", root)
    return checked


def _random_states(circuit, count, seed, spread=0.3):
    rng = np.random.default_rng(seed)
    names = circuit.element_names()
    return [{}] + [
        {name: float(rng.uniform(-spread, spread)) for name in names}
        for _ in range(count)
    ]


class TestMeasurementObjectives:
    def test_fig4_deviation_matrix(self, differential):
        mixed = fig4_mixed_circuit()
        deviation_matrix(mixed.analog, mixed.parameters)
        assert differential["peak"] > 100 and differential["crossing"] > 100

    @pytest.mark.parametrize(
        "build, parameters",
        [
            (bandpass_filter, bandpass_parameters),
            (chebyshev_filter, chebyshev_parameters),
            (state_variable_filter, state_variable_parameters),
        ],
        ids=["bandpass", "chebyshev", "state-variable"],
    )
    def test_filter_parameters(self, differential, build, parameters):
        circuit = build()
        scope = MeasurementScope(circuit)
        for state in _random_states(circuit, count=6, seed=5):
            for parameter in parameters():
                try:
                    parameter.measure(circuit, state, scope=scope)
                except AnalogError:
                    pass  # no crossing inside the window at this state
        assert differential["peak"] > 0 and differential["crossing"] > 0


class TestSmoothFunctions:
    @settings(max_examples=300, deadline=None)
    @given(
        center=st.floats(-3.0, 3.0),
        width=st.floats(0.05, 5.0),
        ripple=st.floats(0.0, 0.3),
        lower=st.floats(-5.0, 5.0),
        span=st.floats(1e-6, 8.0),
        xatol=st.sampled_from([1e-7, 1e-5, 1e-3]),
    )
    def test_bounded_minimum(self, center, width, ripple, lower, span, xatol):
        def func(x):
            bump = math.exp(-(((x - center) / width) ** 2))
            return ripple * math.sin(3.0 * x) - bump

        assert_minimum_matches_scipy(func, lower, lower + span, xatol)

    @settings(max_examples=300, deadline=None)
    @given(
        root=st.floats(-3.0, 3.0),
        slope=st.floats(0.01, 50.0),
        cubic=st.floats(0.0, 2.0),
        ripple=st.floats(0.0, 0.05),
        below=st.floats(1e-3, 6.0),
        above=st.floats(1e-3, 6.0),
        xtol=st.sampled_from([1e-9, 1e-12, 1e-4]),
    )
    def test_brent_root(self, root, slope, cubic, ripple, below, above, xtol):
        def func(x):
            u = x - root
            wiggle = ripple * math.sin(7 * u)
            return math.tanh(slope * u) + cubic * u**3 + wiggle

        xa, xb = root - below, root + above
        if func(xa) * func(xb) >= 0:
            return  # the ripple closed the bracket
        assert_root_matches_scipy(func, xa, xb, xtol)
        assert_root_matches_scipy(func, xb, xa, xtol)  # reversed bracket

    def test_bounded_minimum_stops_at_maxfun(self):
        assert_minimum_matches_scipy(math.cos, 0.0, 6.0, 1e-12, maxfun=4)

    def test_root_at_a_bracket_end(self):
        found = assert_root_matches_scipy(lambda x: x - 1.0, 1.0, 3.0, 1e-9)
        assert found == (1.0, 2)


class TestErrorModes:
    def _raises_alike(self, ours, theirs):
        with pytest.raises(Exception) as expected:
            theirs()
        with pytest.raises(expected.type) as got:
            ours()
        assert str(got.value) == str(expected.value)
        return got.type

    def test_same_sign_bracket(self):
        def func(x):
            return x * x + 1.0

        kind = self._raises_alike(
            lambda: brent_root(func, -1.0, 2.0, 1e-9),
            lambda: brentq(func, -1.0, 2.0, xtol=1e-9),
        )
        assert kind is ValueError

    @pytest.mark.parametrize("nan_at", [0, 1, 3])
    def test_nan_value(self, nan_at):
        def make():
            calls = []

            def func(x):
                calls.append(x)
                return math.nan if len(calls) > nan_at else x**3 - 0.3

            return func

        kind = self._raises_alike(
            lambda: brent_root(make(), -1.0, 2.0, 1e-9),
            lambda: brentq(make(), -1.0, 2.0, xtol=1e-9),
        )
        assert kind is ValueError

    def test_non_convergence(self):
        def func(x):
            return x**3 - 2 * x - 5

        kind = self._raises_alike(
            lambda: brent_root(func, 2.0, 3.0, 1e-12, maxiter=3),
            lambda: brentq(func, 2.0, 3.0, xtol=1e-12, maxiter=3),
        )
        assert kind is RuntimeError
