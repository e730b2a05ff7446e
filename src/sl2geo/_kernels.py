"""Scalar kernels shared by the matrix exponential and the geodesic family.

The trig and hyperbolic regimes of every formula in this package are the two
real branches of a single entire function of z:

    coshc(z) = cosh(sqrt(z))          (= cos(sqrt(-z)) for z < 0)
    sinhc(z) = sinh(sqrt(z))/sqrt(z)  (= sin(sqrt(-z))/sqrt(-z) for z < 0)

Evaluating through z removes the 0/0 boundary between the branches: near
z = 0 both functions are computed by a short Taylor series, so callers never
have to special-case the parabolic limit.  coshc_sinhc gives both from one
square root, for callers that need the pair.

bisect is the package's one root finder: the optimality horizon s_int and
the fan coordinate of the endpoint solver both use it.
"""

from __future__ import annotations

import math

from .errors import NoRootError
from .tolerances import ROOT_TOL, SERIES_CUTOFF


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


def coshc_sinhc(z: float) -> tuple[float, float]:
    """(coshc(z), sinhc(z)) from one square root, bit-identical to both calls.

    cosh and sinh agree to double precision long before they overflow, so
    both saturate to inf at the same z (~ 5.05e5).
    """
    if abs(z) < SERIES_CUTOFF:
        return (1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0)),
                1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0)))
    if z > 0.0:
        w = math.sqrt(z)
        try:
            return math.cosh(w), math.sinh(w) / w
        except OverflowError:
            return math.inf, math.inf
    w = math.sqrt(-z)
    return math.cos(w), math.sin(w) / w


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


def bisect(f, a: float, b: float) -> float:
    """Root of f on [a, b] by bisection, finished with one secant step.

    f(a) and f(b) must have opposite signs (an endpoint where f is zero is
    returned as the root).  The bracket is halved, keeping f at both ends,
    until it is at most ROOT_TOL wide or no float lies strictly between its
    ends.  The answer is the secant point through the final ends: it costs
    no evaluation and lies inside the bracket, as the two values have
    opposite signs.
    """
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoRootError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while b - a > ROOT_TOL:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a + (b - a) * (fa / (fa - fb))
