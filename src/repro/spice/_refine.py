"""The two scalar refiners behind the performance measurements.

:func:`bounded_minimum` is Brent's bounded minimizer (golden section
with parabolic steps), transliterated from scipy 1.17.1's
``_minimize_scalar_bounded`` and trimmed to what the peak search passes.
:func:`brent_root` is Brent's (1973) zeroin as scipy's C ``brentq``
implements it.  Both repeat scipy's floating-point operations in scipy's
order and on scipy's operand types (numpy scalars where scipy's code
makes them), so a search returns scipy's answer bit for bit while
measuring never imports scipy.  ``tests/spice/test_refine.py`` holds
them against the installed scipy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["bounded_minimum", "brent_root"]

#: scipy's ``brentq`` default ``rtol`` (``4·eps``), as a Python float so
#: that the iterates, and the abscissae the objective sees, stay floats.
_RTOL = 4 * sys.float_info.epsilon


def bounded_minimum(func, lower, upper, xatol, maxfun=500):
    """Minimize ``func`` on ``[lower, upper]``.

    Returns ``(x, f(x), evaluations)``.  ``x`` and ``f(x)`` are numpy
    float64 scalars, as scipy's ``minimize_scalar(method="bounded")``
    returns them; the search stops after ``maxfun`` evaluations whether
    or not it converged.
    """
    # numpy's sqrt, as scipy imports it: these constants are float64
    # scalars, and so is every abscissa ``func`` sees.
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (
                (np.abs(p) < np.abs(0.5 * q * r))
                and (p > q * (a - xf))
                and (p < q * (b - xf))
            ):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
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
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
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
    calls = 0

    def f(x: float) -> float:
        nonlocal calls
        value = func(x)
        calls += 1
        if np.isnan(value):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return float(value)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
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
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
