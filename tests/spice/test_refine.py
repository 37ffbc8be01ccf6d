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
1, its searches in lockstep) and for every parameter of the band-pass,
Chebyshev and state-variable filters at a set of random deviation
states.  Each recorded search is replayed through the scalar wrapper
and through scipy, which must both ask for the recorded abscissae and
return the recorded answer.  A hypothesis sweep adds brackets over
smooth functions, and the error modes (same-sign bracket, NaN,
non-convergence) must raise alike.

A deviation matrix runs its searches in lockstep; run one search after
another instead, it must hand each state's searches the same abscissae
in the same order, and the batched gain behind the lockstep rounds must
equal each model's own gain, singular states included.
"""

import collections
import importlib
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
from repro.spice import (
    VCCS,
    AcModel,
    AnalogCircuit,
    AnalogError,
    MeasurementScope,
    lockstep,
    measure,
)
from repro.spice._refine import bounded_minimum, brent_root
from repro.spice.acmodel import STACK_MIN_PAIRS, batch_gains

deviation_module = importlib.import_module("repro.analog.deviation")


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


def _recorded(steps, replay):
    """A step generator like ``steps`` that records every (abscissa,
    value) it hands out and receives, and passes the record, the result
    and its own arguments to ``replay`` once the search returns."""

    def recording(*args, **kwargs):
        seen = []
        search = steps(*args, **kwargs)
        try:
            x = next(search)
            while True:
                value = yield x
                seen.append((x, value))
                x = search.send(value)
        except StopIteration as stop:
            result = stop.value
        replay(seen, result, *args, **kwargs)
        return result

    return recording


def _replayed(seen):
    """The objective a recorded search saw: the recorded value at each
    recorded abscissa (matched by type and bits)."""
    table = {_bits(x): value for x, value in seen}
    return lambda x: table[_bits(x)]


@pytest.fixture
def differential(monkeypatch):
    """Route :mod:`repro.spice.measure`'s refiner step generators
    through the checks above.  Each search a measurement runs (many in
    lockstep, or one alone) is recorded; its objective is then replayed
    through the scalar wrapper, which must hand out the same abscissae
    in the same order and return the same result, and through scipy.
    Yields the count of searches checked per refiner."""
    checked = {"peak": 0, "crossing": 0}

    def minimum(seen, result, lower, upper, xatol, maxfun=500):
        checked["peak"] += 1
        func, scalar_seen = _logged(_replayed(seen))
        x, fun, nfev = bounded_minimum(func, lower, upper, xatol, maxfun)
        assert scalar_seen == [_bits(x) for x, _ in seen]
        assert (_bits(x), _bits(fun), nfev) == (
            _bits(result[0]), _bits(result[1]), result[2]
        )
        assert_minimum_matches_scipy(
            _replayed(seen), lower, upper, xatol, maxfun
        )

    def root(seen, result, xa, xb, xtol, maxiter=100):
        checked["crossing"] += 1
        func, scalar_seen = _logged(_replayed(seen))
        found, calls = brent_root(func, xa, xb, xtol, maxiter)
        assert scalar_seen == [_bits(x) for x, _ in seen]
        assert (_bits(found), calls) == (_bits(result[0]), result[1])
        assert_root_matches_scipy(_replayed(seen), xa, xb, xtol, maxiter)

    monkeypatch.setattr(
        measure,
        "bounded_minimum_steps",
        _recorded(measure.bounded_minimum_steps, minimum),
    )
    monkeypatch.setattr(
        measure,
        "brent_root_steps",
        _recorded(measure.brent_root_steps, root),
    )
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


def _search_log(monkeypatch):
    """Patch the step generators of :mod:`repro.spice.measure` to count
    each finished search as (refiner, arguments, every abscissa), all by
    type and bits."""
    searches = collections.Counter()

    def counted(name):
        def count(seen, result, *args, **kwargs):
            arguments = tuple(_bits(arg) for arg in args)
            abscissae = tuple(_bits(x) for x, _ in seen)
            searches[(name, arguments, abscissae)] += 1

        return count

    monkeypatch.setattr(
        measure,
        "bounded_minimum_steps",
        _recorded(measure.bounded_minimum_steps, counted("minimum")),
    )
    monkeypatch.setattr(
        measure,
        "brent_root_steps",
        _recorded(measure.brent_root_steps, counted("root")),
    )
    return searches


def _one_after_another(programs):
    """Serial running: each program runs alone, so every gain it asks
    for is its model's scalar ``gain``."""
    return [lockstep([program])[0] for program in programs]


class TestLockstep:
    @pytest.mark.parametrize("adversary", ["sensitivity", "none"])
    def test_searches_see_the_serial_abscissae(self, monkeypatch, adversary):
        mixed = fig4_mixed_circuit()
        runs = []
        for runner in (None, _one_after_another):
            with monkeypatch.context() as patch:
                searches = _search_log(patch)
                if runner is not None:
                    patch.setattr(deviation_module, "lockstep", runner)
                matrix = deviation_matrix(
                    mixed.analog, mixed.parameters, adversary=adversary
                )
            runs.append((searches, matrix.results))
        (lockstep_searches, lockstep_results), (serial_searches, serial_results) = runs
        assert sum(lockstep_searches.values()) > 200
        assert lockstep_searches == serial_searches
        assert lockstep_results == serial_results

    def test_the_first_failing_program_raises(self):
        model = AcModel(bandpass_filter(), "Vin", "V1")

        def program(index, rounds, fails):
            for _ in range(rounds):
                yield model, 1e3
            if fails:
                raise ValueError(index)
            return index

        closed = []

        def watched(index, rounds, fails):
            try:
                return (yield from program(index, rounds, fails))
            except GeneratorExit:
                closed.append(index)
                raise

        # Program 2 fails first in time, program 1 later: program 1 is
        # the error a serial run raises, and programs after 2 are closed.
        with pytest.raises(ValueError) as raised:
            lockstep(
                [
                    watched(0, 1, False),
                    watched(1, 5, True),
                    watched(2, 1, True),
                    watched(3, 9, False),
                ]
            )
        assert raised.value.args == (1,)
        assert closed == [3]

    def test_programs_that_only_wait_are_an_error(self):
        def waiting():
            while True:
                yield None

        with pytest.raises(RuntimeError, match="waits on another"):
            lockstep([waiting()])


def _singular_when_deviated() -> AnalogCircuit:
    """A band-pass plus two cross-coupled transconductances on nodes of
    their own: regular at nominal, exactly singular once ``Ga`` drops by
    half (the elimination of ``b`` leaves ``GMIN − ga·gb/GMIN = 0``)."""
    circuit = bandpass_filter()
    circuit.add(VCCS("Ga", "a", "0", "b", "0", 2e-12))
    circuit.add(VCCS("Gb", "b", "0", "a", "0", 1e-12))
    return circuit


class TestBatchGains:
    @pytest.mark.parametrize(
        "build, parameters",
        [
            (bandpass_filter, bandpass_parameters),
            (chebyshev_filter, chebyshev_parameters),
            (state_variable_filter, state_variable_parameters),
        ],
        ids=["bandpass", "chebyshev", "state-variable"],
    )
    def test_equals_gain(self, build, parameters):
        circuit = build()
        parameter = parameters()[0]
        base = AcModel(circuit, parameter.source, parameter.output)
        states = _random_states(circuit, count=5, seed=3)
        models = [base.at_state(state) for state in states]
        # a full compile of a derived state is a family of its own
        models.append(
            AcModel(circuit, parameter.source, parameter.output, states[1])
        )
        frequencies = [0.0, 10.0, np.float64(1234.5), 2.5e3, 1e5]
        pairs = [(model, f) for f in frequencies for model in models]
        batched = batch_gains(pairs)
        assert [_bits(gain) for gain in batched] == [
            _bits(model.gain(f)) for model, f in pairs
        ]

    def test_a_singular_state_raises_its_own_error(self):
        circuit = _singular_when_deviated()
        base = AcModel(circuit, "Vin", "V1")
        singular = base.at_state({"Ga": -0.5})
        regular = base.at_state({"R1": 0.1})
        pairs = [
            (base, 100.0),
            (singular, 2e3),
            (regular, 3e3),
            (regular, 4e3),
            (base, 5e3),
            (singular, 0.0),
            (regular, 0.0),
            (base, 0.0),
            (regular, 0.0),
        ]
        # enough pairs at AC and at DC for batch_gains to stack each
        assert STACK_MIN_PAIRS <= 5
        batched = batch_gains(pairs)
        for (model, f), got in zip(pairs, batched):
            try:
                expected = model.gain(f)
            except AnalogError as exc:
                assert isinstance(got, AnalogError)
                assert str(got) == str(exc)
            else:
                assert _bits(got) == _bits(expected)
        assert isinstance(batched[1], AnalogError)
        assert "at 2000.0 Hz" in str(batched[1])
        assert not any(isinstance(batched[i], AnalogError) for i in (2, 3, 4))
