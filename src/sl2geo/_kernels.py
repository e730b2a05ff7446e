"""Scalar kernels and the float cores of the endpoint solver.

The trig and hyperbolic regimes of every formula in this package are the two
real branches of a single entire function of z:

    coshc(z) = cosh(sqrt(z))          (= cos(sqrt(-z)) for z < 0)
    sinhc(z) = sinh(sqrt(z))/sqrt(z)  (= sin(sqrt(-z))/sqrt(-z) for z < 0)

Evaluating through z removes the 0/0 boundary between the branches: near
z = 0 both functions are computed by a short Taylor series, so callers never
have to special-case the parabolic limit.  coshc_sinhc gives both from one
square root, for callers that need the pair.

The two root finders share one bracket contract, the caller passing both
end values.  zeroin (Brent's method, to rounding) takes the fan searches at
target radius r <= 3, the axis cut and every falling part.  bisect (to
ROOT_TOL) takes the searches whose cost is the optimality horizon: s_int
and the rising fan parts at r > 3, whose objective jumps to a sentinel
past the horizon.  Those stay on bisection until the benchmark's peak RSS
stops growing with throughput and the sentinel is deleted (ROADMAP 1, 2).

_finite and _grid state once the argument domains the public functions share.

The rest is the 2x2 algebra on row-major float 4-tuples (a, b, c, d), which
solve runs inline with the same operations.  Nothing here imports numpy.
"""

from __future__ import annotations

import math

from .errors import (BadGridError, ClassMismatchError, NoRootError,
                     NonFiniteError, NotUnimodularError)
from .tolerances import DET_TOL, ROOT_TOL, ROTATION_FLOOR, SERIES_CUTOFF, SINGULAR_BAND
from .types import QuotientPoint

_A2_ENTRIES = (0.5, 0.0, 0.0, -0.5)  # A2, the endpoint solver's lift direction
_TWO_EPS = 2.0 ** -51  # twice the double epsilon


def _finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} = {value} is not finite")


def _grid(s_max: float, n: int) -> None:
    if n < 2:
        raise BadGridError(f"need at least 2 samples, got {n}")
    if not s_max > 0.0:
        raise BadGridError(f"s_max must be positive, got {s_max}")
    if not math.isfinite(s_max * (n - 1)):
        raise BadGridError(f"s_max = {s_max} with {n} samples overflows the grid")


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
    both saturate to inf at the same z (~ 5.05e5).  It is an unguarded
    inner kernel: its callers check that z is finite.
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


def bisect(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f on [a, b] by bisection, finished with one secant step.

    The caller gives fa = f(a) and fb = f(b), of opposite signs; an end
    whose value is zero is returned as the root without a call.  The bracket
    is halved, keeping f at both ends, until it is at most ROOT_TOL wide or
    no float lies strictly between its ends.  The answer is the secant point
    through the final ends: it costs no evaluation and lies inside the
    bracket, as the two values have opposite signs.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    positive = fa > 0.0  # the sign of f at the moving end a never changes
    if positive == (fb > 0.0):
        raise NoRootError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while b - a > ROOT_TOL:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == positive:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a + (b - a) * (fa / (fa - fb))


def zeroin(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f on [a, b] by Brent's zeroin, to rounding.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4;
    the bracket contract is bisect's; an end value may be infinite.  Each
    step evaluates f once, at the inverse quadratic or secant point when it
    is inside the bracket and the steps shrink fast enough, else at the
    midpoint, and at least tol from the best end b; it stops once the other
    end is within 2 tol of b, with tol = 2 eps |b| (plus the least
    subnormal, so that every step moves b).
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoRootError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = _TWO_EPS * abs(b) + 5e-324
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q if p > 0.0 else q), abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _adj(x: tuple) -> tuple:
    a, b, c, d = x
    return d, -b, -c, a


def _mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _exp2(m: tuple) -> tuple:
    a, b, c, d = m
    cc, ss = coshc_sinhc(-(a * d - b * c))
    return cc + ss * a, ss * b, ss * c, cc + ss * d


def _direction(phi: float) -> tuple:
    h, v = 0.5 * math.cos(phi), 0.5 * math.sin(phi)
    return v, h, h, -v


def _lift_with_direction(c: float, p: tuple, t: float) -> tuple:
    # exp((c A0 + P) t) exp(-c A0 t), c A0 = [[0, -c/2], [c/2, 0]]
    p0, p1, p2, p3 = p
    h = 0.5 * c
    spin = _exp2((0.0, h * t, -h * t, 0.0))
    return _mul(_exp2((p0 * t, (p1 - h) * t, (p2 + h) * t, p3 * t)), spin)


def _check_unimodular(x: tuple) -> None:
    # Non-finite entries go first.  The determinant of a stored matrix is
    # only representable to about eps * ||X||^2, so the tolerance scales with
    # the squared size (plain absolute check for moderate entries, inf once
    # it overflows); a determinant that overflows (inf, or NaN) fails.
    a, b, c, d = x
    if not all(map(math.isfinite, x)):
        raise NotUnimodularError(f"entries {[[a, b], [c, d]]} are not all finite")
    det = a * d - b * c
    scale = max(1.0, a * a + b * b + c * c + d * d)
    if not (math.isfinite(det) and abs(det - 1.0) <= DET_TOL * scale):
        raise NotUnimodularError(f"det = {det!r} is not 1 within {DET_TOL * scale}")


def _project(x: tuple) -> tuple[float, float]:
    _check_unimodular(x)
    a, b, c, d = x
    return 0.5 * (a + d), 0.5 * (b - c)


def _recover_rotation(x1: tuple, x2: tuple, tol: float) -> tuple[tuple, bool]:
    # _align's (K, unique) for X1 and X2, once they project to one class within tol.
    _finite("tol", tol)
    px1, py1 = _project(x1)
    px2, py2 = _project(x2)
    if not math.hypot(px1 - px2, py1 - py2) <= tol * max(1.0, math.hypot(px1, py1)):
        raise ClassMismatchError(f"projections {QuotientPoint(px1, py1)} and "
                                 f"{QuotientPoint(px2, py2)} differ")
    return _align(0.5 * (x1[0] - x1[3]), 0.5 * (x1[1] + x1[2]),
                  0.5 * (x2[0] - x2[3]), 0.5 * (x2[1] + x2[2]))


def _align(m1: float, k1: float, m2: float, k2: float) -> tuple[tuple, bool]:
    # (K, unique) with K S1 K^T = S2 for symmetric parts S = [[m, k], [k, -m]] of one
    # size: K turns (m, k) by the double angle.  The one home of the ROTATION_FLOOR rule.
    sym_sq = m1 * m1 + k1 * k1
    if sym_sq <= ROTATION_FLOOR * ROTATION_FLOOR:
        return (1.0, 0.0, 0.0, 1.0), False
    theta = 0.5 * math.atan2(k1 * m2 - m1 * k2, m1 * m2 + k1 * k2)
    c, s = math.cos(theta), math.sin(theta)
    return (c, s, -s, c), sym_sq > SINGULAR_BAND
