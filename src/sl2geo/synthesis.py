"""Endpoint synthesis: geodesic between two group elements, distance, cut locus.

By right-invariance everything reduces to targets X_hat = Xf Xi^{-1} reached
from the identity, i.e. to planar targets in the quotient.  For a target at
polar radius r and angle beta (taken in the upper half-plane; the lower half
mirrors with c -> -c) the solver uses the fan structure of the family:

  * along each geodesic the polar angle grows monotonically, and distinct
    optimal geodesics never intersect, so at fixed radius r the crossing
    angle orders the fan;
  * the squared distance from the unit circle is (s sinhc(z))^2, which makes
    the radius-r crossing times closed-form invertible on the rising branch
    and, for |c| > 1, on the falling branch; it also gives the crossing's k1
    and k2 = c sqrt(r^2 - 1) in closed form, hence the search's polar angle
    (_fan defines the crossing once; check_fan_monotone walks it too, but
    takes the angle from k1k2, to stay independent of the search);
  * one fan coordinate starts at 0, where floats are densest, on the falling
    crossings (angle unbounded) and runs back through the rising ones to
    angle 0, so one bisection finds every target outside the circle at its
    own angle, the bands included; only the exact positive axis is closed-form.

Cut-locus targets (unit circle, or the axis with x <= -1) are reached by
several minimizing geodesics; one representative is returned with a flag.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (_A2_ENTRIES, _adj, _check_unimodular, _finite, _grid,
                       _lift_with_direction, _mul, _project, _recover_rotation,
                       bisect)
from .algebra import _entries, _matrix
from .errors import (NoRootError, NonFiniteError, StartPointError,
                     UnreachableError)
from .geodesics import (C_ORTHOGONAL, k1k2, landing_time, lift_with_direction,
                        s_int, x_int)
from .quotient import project
from .tolerances import MATCH_TOL, SERIES_CUTOFF, SINGULAR_BAND, SYNTH_TOL
from .types import (CutLocusClass, DistanceResult, QuotientPoint,
                    SynthesisSolution)

_FAR = 1e9  # sentinel angle for rising crossings beyond the optimality horizon
# The classes as module names: each CutLocusClass.X lookup costs ~0.14 us.
_START, _CIRCLE = CutLocusClass.START_POINT, CutLocusClass.SINGULAR_CIRCLE
_AXIS_CUT, _REGULAR = CutLocusClass.NEGATIVE_AXIS_SEGMENT, CutLocusClass.REGULAR


def _stratum(x: float, y: float) -> CutLocusClass:
    # Cut-locus class of (x, y), the one home of the start disc and the two
    # bands.  Where they overlap, near (+-1, 0), the first test wins.
    if math.hypot(x - 1.0, y) <= SINGULAR_BAND:
        return _START
    if abs(x * x + y * y - 1.0) <= SINGULAR_BAND:
        return _CIRCLE
    if abs(y) <= SINGULAR_BAND and x <= -1.0 + SINGULAR_BAND:
        return _AXIS_CUT
    return _REGULAR


def classify_cut_locus(x: np.ndarray) -> CutLocusClass:
    """Position of a group element relative to the loss-of-optimality locus.

    The cut locus is the union of the singular circle x^2+y^2 = 1 (minus the
    start point) and the axis segment y = 0, x <= -1; everything else is
    regular.
    """
    return _stratum(*project(x))


def _polar_angle(c: float, s: float) -> float:
    # Continuous polar angle along the optimal segment (c >= 0): in complex
    # form x + iy = (k1 - i k2) e^{ics}, so the angle is cs - atan2(k2, k1).
    k1, k2 = k1k2(c, s)
    return c * s - math.atan2(k2, k1)


def _fan(radial: float, beta: float = 0.0, r: float = 0.0):
    """(gap, crossing, span) of the fan's crossings of radius sqrt(1 + radial^2).

    The fan coordinate u in (0, 1 + span] orders them by decreasing angle.
    u < span sets delta = pi u/span, sqrt(c^2-1) = sin(delta)/radial and
    s = (pi - delta)/sqrt(c^2-1): falling crossings (angle past pi,
    unbounded as u -> 0), the tangent, then trigonometric rising ones.
    u >= span is the hyperbolic rising crossing at c = (1 + span) - u.
    span, a power of two >= 1 growing like 1/radial, keeps the ROOT_TOL
    bracket fine near the circle and pi u/span and (1 + span) - u exact.

    As s sinhc(z) = radial, k2 = c radial and k1 = coshc(z) is -cos(delta)
    for u < span and sqrt(1 + w) for u >= span, with w = (1 - c^2) radial^2
    and s = asinh(sqrt(w))/sqrt(1 - c^2) (a series near w = 0).  gap(u), one
    Python frame per call, is the angle cs - atan2(k2, k1) minus beta, or
    _FAR past the horizon of a target at radius r > 3 (r = 0 skips that
    test); crossing(u) re-evaluates it and returns (c >= 0, s, k1).
    """
    span = 2.0 ** max(0, math.ceil(-math.log2(radial)))
    horizon = r > 3.0
    c = s = k1 = 0.0

    def gap(u: float) -> float:
        nonlocal c, s, k1
        if u < span:
            delta = math.pi * u / span
            v = math.sin(delta) / radial
            c, s, k1 = math.sqrt(1.0 + v * v), (math.pi - delta) / v, -math.cos(delta)
        else:
            c = (1.0 + span) - u
            w = (1.0 - c * c) * radial * radial
            if w < SERIES_CUTOFF:
                s = radial * (1.0 - w * (1.0 / 6.0 - w * (3.0 / 40.0 - w * 15.0 / 336.0)))
            else:
                a = math.sqrt(w)
                s = radial * math.asinh(a) / a
            k1 = math.sqrt(1.0 + w)
        # Crossings past the optimality horizon have angle beyond pi >= beta;
        # falling ones need no test.  Only rising c <= C_ORTHOGONAL crosses the
        # axis, only r > 3 (span 1) is at stake, and the radius grows over the
        # optimal segment, so the terminal radius |x_int| decides; s <= pi/c is
        # always inside (which skips |x_int|, astronomic for tiny c).
        if (horizon and u >= span - 0.5 and 0.0 < c <= C_ORTHOGONAL
                and s > math.pi / c and r > -x_int(c) * (1.0 + 1e-15)):
            return _FAR
        return c * s - math.atan2(c * radial, k1) - beta

    def crossing(u: float) -> tuple[float, float, float]:
        gap(u)
        return c, s, k1

    return gap, crossing, span


def distance_to_class(p: QuotientPoint) -> DistanceResult:
    """Minimizing (t_f, c, s) with planar_geodesic(c, s) = p and t_f = 2s.

    c has the sign of y, in the axis bands too (c > 0 on the cut at y = +-0.0),
    and on_cut_locus agrees with classify_cut_locus.  Points strictly inside
    the unit disc are not in the quotient and raise UnreachableError.
    """
    x, y = float(p[0]), float(p[1])
    r_sq = x * x + y * y
    if not math.isfinite(r_sq):
        _finite("target coordinate x", x)
        _finite("target coordinate y", y)
        raise NonFiniteError(f"squared radius of ({x}, {y}) overflows")
    if r_sq < 1.0 - SINGULAR_BAND:
        raise UnreachableError(f"({x}, {y}) lies inside the unit disc")
    return _distance(x, y, math.sqrt(r_sq - 1.0) if r_sq > 1.0 else 0.0)


def _distance(x: float, y: float, radial: float) -> DistanceResult:
    # distance_to_class of (x, y), given radial = sqrt(x^2 + y^2 - 1) >= 0,
    # which solve takes from X_hat's symmetric part at full relative precision.
    stratum = _stratum(x, y)
    if stratum is _START:
        raise StartPointError("target coincides with the start point (1, 0)")
    if y == 0.0 and x > 0.0:  # near (1, 0) the search's r^2 - 1 costs ~2e-9 relative
        s = math.acosh(x)  # x > 1: the c = 0 geodesic along the axis
        return DistanceResult(2.0 * s, 0.0, s, False)
    beta, mirror = math.atan2(abs(y), x), y < 0.0  # pi, c > 0 on the cut at y = +-0

    if radial == 0.0:
        # Landing targets land at angle beta when c/sqrt(c^2-1) = 1 + beta/pi.
        # Band targets outside the circle stop short and take the fan search.
        rho = 1.0 + beta / math.pi
        c = rho / math.sqrt(rho * rho - 1.0)
        s = landing_time(c)
        return DistanceResult(2.0 * s, -c if mirror else c, s, True)

    # Axis-cut targets skip _fan's horizon test: their answers lie on or just
    # inside the horizon, so the sign of the angle gap already is that test.
    r = 0.0 if stratum is _AXIS_CUT else math.sqrt(x * x + y * y)
    gap, crossing, span = _fan(radial, beta, r)
    # u = 0 is delta = 0, where s divides by zero; every answer has u > 0.1.
    c, s, _ = crossing(bisect(gap, 2.0 ** -60 * span, 1.0 + span))
    return DistanceResult(2.0 * s, -c if mirror else c, s, stratum is not _REGULAR)


def solve(xi: np.ndarray, xf: np.ndarray) -> SynthesisSolution:
    """Minimizing geodesic data from Xi to Xf.

    Reduces to the identity problem for X_hat = Xf Xi^{-1}, solves the
    planar problem for (c, t_f), lifts with the fixed direction P = A2, and
    conjugates by the recovered rotation to align the lift with X_hat.  The
    geodesic itself is t -> exp((c A0 + P) t) exp(-c A0 t) Xi.  Xi is
    checked to be in SL(2); with det(X_hat) = 1 that makes det(Xf) = 1 too.
    Each matrix is read once; the group algebra runs on float entries, and
    P and K are the only arrays built.
    """
    xi = _entries(xi)
    _check_unimodular(xi)
    xf_hat = _mul(_entries(xf), _adj(xi))
    px, py = _project(xf_hat)
    if _stratum(px, py) is _START:
        raise StartPointError("Xf and Xi coincide: the geodesic is a point")
    # For det 1, x^2 + y^2 - 1 is the squared size of the symmetric part.
    radial = math.hypot(0.5 * (xf_hat[0] - xf_hat[3]), 0.5 * (xf_hat[1] + xf_hat[2]))
    dist = _distance(px, py, radial)
    y_f = _lift_with_direction(dist.c, _A2_ENTRIES, dist.t_f)
    k, _ = _recover_rotation(y_f, xf_hat, MATCH_TOL)
    k_t = (k[0], k[2], k[1], k[3])
    direction = _mul(_mul(k, _A2_ENTRIES), k_t)  # K A2 K^T
    recon = _lift_with_direction(dist.c, direction, dist.t_f)
    residual = math.dist(recon, xf_hat)
    if residual > SYNTH_TOL * max(1.0, math.hypot(*xf_hat)):
        raise NoRootError(f"endpoint residual {residual} exceeds {SYNTH_TOL}")
    return SynthesisSolution(c=dist.c, t_f=dist.t_f, P=_matrix(direction),
                             K=_matrix(k), residual=residual,
                             on_cut_locus=dist.on_cut_locus)


def verify_solution(sol: SynthesisSolution, xi: np.ndarray, xf: np.ndarray) -> float:
    """Frobenius error of the reconstructed endpoint against Xf."""
    recon = lift_with_direction(sol.c, sol.P, sol.t_f) @ xi
    return float(np.linalg.norm(recon - xf))


def check_fan_monotone(r: float, n: int = 128) -> float:
    """Largest violation of the angular fan ordering at radius r.

    Walks the fan coordinate of :func:`distance_to_class` with n samples on
    each of its hyperbolic and trigonometric parts, through the crossings
    that its bisection sees, keeps the optimal ones (s <= s_int(c)), whose
    polar angles (from k1k2, not the search's closed form) must not
    decrease, and returns the worst decrease, 0.0 for a clean fan.  Used as
    a runtime validation of the ordering the bisection relies on.
    """
    _finite("fan radius r", r)
    if r <= 1.0:
        raise UnreachableError("fan check needs a radius strictly above 1")
    if not math.isfinite(r * r):
        raise NonFiniteError(f"squared radius of r = {r} overflows")
    _, crossing, span = _fan(math.sqrt(r * r - 1.0))
    _grid(span, n)
    angles = []
    for i in range(1, 2 * n):
        u = 1.0 + span - i / n if i <= n else span * (2 * n - i) / n
        c, s, _ = crossing(u)
        if s <= s_int(c):
            angles.append(_polar_angle(c, s))
    return max([0.0] + [a - b for a, b in zip(angles, angles[1:])])
