"""Scalar kernels shared by the matrix exponential and the geodesic family.

The trig and hyperbolic regimes of every formula in this package are the two
real branches of a single entire function of z:

    coshc(z) = cosh(sqrt(z))          (= cos(sqrt(-z)) for z < 0)
    sinhc(z) = sinh(sqrt(z))/sqrt(z)  (= sin(sqrt(-z))/sqrt(-z) for z < 0)

Evaluating through z removes the 0/0 boundary between the branches: near
z = 0 both functions are computed by a short Taylor series, so callers never
have to special-case the parabolic limit.
"""

from __future__ import annotations

import math

from .errors import NoRootError
from .tolerances import ROOT_TOL, SERIES_CUTOFF

_MAX_BISECT = 200
_NEWTON_STEPS = 2


def coshc(z: float) -> float:
    """cosh(sqrt(z)) continued to negative z as cos(sqrt(-z)).

    Saturates to inf instead of raising once cosh overflows (z ~ 5e5).
    """
    if abs(z) < SERIES_CUTOFF:
        return 1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0))
    if z > 0.0:
        try:
            return math.cosh(math.sqrt(z))
        except OverflowError:
            return math.inf
    return math.cos(math.sqrt(-z))


def sinhc(z: float) -> float:
    """sinh(sqrt(z))/sqrt(z) continued to negative z as sin(sqrt(-z))/sqrt(-z).

    Saturates to inf instead of raising once sinh overflows.
    """
    if abs(z) < SERIES_CUTOFF:
        return 1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0))
    if z > 0.0:
        w = math.sqrt(z)
        try:
            return math.sinh(w) / w
        except OverflowError:
            return math.inf
    w = math.sqrt(-z)
    return math.sin(w) / w


def inverse_sinhc_scaled(q: float, radial: float) -> float:
    """Smallest s >= 0 with s*sinhc(q*s*s) == radial, on the rising branch.

    For q > 0 this is asinh(sqrt(q)*radial)/sqrt(q); for q < 0 it is
    asin(sqrt(-q)*radial)/sqrt(-q) and requires sqrt(-q)*radial <= 1 (the
    caller checks reachability).  Both branches share one alternating series
    in z = q*radial^2.
    """
    z = q * radial * radial
    if abs(z) < SERIES_CUTOFF:
        return radial * (1.0 - z * (1.0 / 6.0 - z * (3.0 / 40.0 - z * 15.0 / 336.0)))
    if z > 0.0:
        u = math.sqrt(z)
        return radial * math.asinh(u) / u
    # Rounding in the caller's q can push u past 1 at the tangent parameter
    # (badly so when q comes from a cancellation near c = 1); clamp onto the
    # attainable branch, where the inverse is the quarter-period.
    u = min(math.sqrt(-z), 1.0)
    return radial * math.asin(u) / u


def bisect_newton(f, a: float, b: float, df=None) -> float:
    """Root of f on [a, b] by bracketed bisection plus Newton polishing.

    f(a) and f(b) must have opposite signs (endpoints equal to zero are
    accepted as roots).  Bisection runs until the bracket is narrower than
    ROOT_TOL; the optional derivative enables a fixed number of Newton steps
    to polish the midpoint.
    """
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoRootError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    lo, hi = a, b
    sign_lo = fa > 0.0
    for _ in range(_MAX_BISECT):
        if hi - lo <= ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if df is not None:
        for _ in range(_NEWTON_STEPS):
            d = df(root)
            if d == 0.0:
                break
            step = f(root) / d
            candidate = root - step
            if not math.isfinite(candidate):
                break
            # Stay near the certified bracket.
            if candidate < a - ROOT_TOL or candidate > b + ROOT_TOL:
                break
            root = candidate
    return root
