"""The two scalar refiners behind the performance measurements.

:func:`bounded_minimum` is Brent's bounded minimizer (golden section
with parabolic steps), transliterated from scipy 1.17.1's
``_minimize_scalar_bounded`` and trimmed to what the peak search passes.
:func:`brent_root` is Brent's (1973) zeroin as scipy's C ``brentq``
implements it.  Both repeat scipy's floating-point operations in scipy's
order, on IEEE doubles: the bounded minimizer computes on Python floats
where scipy's code has float64 scalars (the same operations give the
same bits) and hands out and returns float64 scalars where scipy does.
So a search returns scipy's answer bit for bit while measuring never
imports scipy.  ``tests/spice/test_refine.py`` holds
them against the installed scipy.

Each refiner is written once, as a *step generator*
(:func:`bounded_minimum_steps`, :func:`brent_root_steps`): it yields
an abscissa and is sent the function value there.  The scalar calls
drive it with a function (:func:`evaluate`); a lockstep measurement
(:func:`repro.spice.measure.lockstep`) advances the searches of many
deviation states together and answers each round of abscissae with one
stacked solve.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "bounded_minimum",
    "bounded_minimum_steps",
    "brent_root",
    "brent_root_steps",
    "evaluate",
]

#: scipy's ``brentq`` default ``rtol`` (``4·eps``), as a Python float so
#: that the iterates, and the abscissae the objective sees, stay floats.
_RTOL = 4 * sys.float_info.epsilon


def evaluate(steps, func):
    """Drive a refiner's step generator with ``func``: each abscissa it
    yields is answered by ``func`` of it; returns what the search
    returns."""
    try:
        x = next(steps)
        while True:
            x = steps.send(func(x))
    except StopIteration as stop:
        return stop.value


def bounded_minimum(func, lower, upper, xatol, maxfun=500):
    """Minimize ``func`` on ``[lower, upper]``.

    Returns ``(x, f(x), evaluations)``.  ``x`` and ``f(x)`` are numpy
    float64 scalars, as scipy's ``minimize_scalar(method="bounded")``
    returns them; the search stops after ``maxfun`` evaluations whether
    or not it converged.
    """
    return evaluate(bounded_minimum_steps(lower, upper, xatol, maxfun), func)


def _sign(v: float) -> float:
    """scipy's ``np.sign(v) + (v == 0)``: ±1.0, 1.0 at zero, NaN kept."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _maximum(u: float, v: float) -> float:
    """``np.maximum(u, v)``: the larger, or a NaN if either is one."""
    return u if u >= v or u != u else v


def bounded_minimum_steps(lower, upper, xatol, maxfun=500):
    """:func:`bounded_minimum` as a step generator: it yields each
    abscissa, is sent ``f`` of it, and returns ``(x, f(x),
    evaluations)``."""
    # scipy computes on float64 scalars (its constants come from
    # np.sqrt); Python floats are the same IEEE doubles, so every
    # operation below gives scipy's bits at a fraction of a numpy
    # scalar's cost.  Only what leaves the search carries numpy's type:
    # each abscissa ``func`` sees and the returned pair are float64.
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lower), float(upper)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield np.float64(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (
                (abs(p) < abs(0.5 * q * r))
                and (p > q * (a - xf))
                and (p < q * (b - xf))
            ):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _sign(xm - xf)
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * _maximum(abs(rat), tol1)
        fu = yield np.float64(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return np.float64(xf), np.float64(fx), num


def brent_root(func, xa, xb, xtol, maxiter=100):
    """A root of ``func`` on the sign-changing bracket ``[xa, xb]``.

    Returns ``(root, evaluations)`` with ``root`` a Python float, the
    value scipy's ``brentq(func, xa, xb, xtol=xtol)`` returns.
    Like ``brentq`` it raises :class:`ValueError` on a NaN function
    value or a same-sign bracket and :class:`RuntimeError` when
    ``maxiter`` iterations do not converge.
    """
    return evaluate(brent_root_steps(xa, xb, xtol, maxiter), func)


def _checked(x: float, value) -> float:
    if np.isnan(value):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return float(value)


def brent_root_steps(xa, xb, xtol, maxiter=100):
    """:func:`brent_root` as a step generator: it yields each abscissa,
    is sent ``f`` of it, and returns ``(root, evaluations)``."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(xpre, (yield xpre))
    fcur = _checked(xcur, (yield xcur))
    calls = 2
    if fpre == 0:
        return xpre, calls
    if fcur == 0:
        return xcur, calls
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (
            fpre != 0
            and fcur != 0
            and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, calls

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(xcur, (yield xcur))
        calls += 1
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
