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
    and, for |c| > 1, on the falling branch;
  * sweeping c up through rising crossings and then down through falling
    crossings covers angles 0 -> pi, so one bisection in c per branch finds
    the target.

Cut-locus targets (unit circle, or the axis with x <= -1) are reached by
several minimizing geodesics; one representative is returned with a flag.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import bisect_newton, inverse_sinhc_scaled
from .algebra import _A2, adjugate
from .errors import (NoRootError, NonFiniteError, StartPointError,
                     UnreachableError)
from .geodesics import (C_LANDING, C_ORTHOGONAL, k1k2, landing_time, lift,
                        lift_with_direction, s_int, x_int)
from .quotient import project, recover_rotation
from .tolerances import SINGULAR_BAND, SYNTH_TOL
from .types import (CutLocusClass, DistanceResult, QuotientPoint,
                    SynthesisSolution)

_FAR = 1e9  # sentinel angle for parameters that never reach the radius


def classify_cut_locus(x: np.ndarray) -> CutLocusClass:
    """Position of a group element relative to the loss-of-optimality locus.

    The cut locus is the union of the singular circle x^2+y^2 = 1 (minus the
    start point) and the axis segment y = 0, x <= -1; everything else is
    regular.
    """
    p = project(x)
    if math.hypot(p.x - 1.0, p.y) <= SINGULAR_BAND:
        return CutLocusClass.START_POINT
    if abs(p.radius_sq - 1.0) <= SINGULAR_BAND:
        return CutLocusClass.SINGULAR_CIRCLE
    if abs(p.y) <= SINGULAR_BAND and p.x <= -1.0 + SINGULAR_BAND:
        return CutLocusClass.NEGATIVE_AXIS_SEGMENT
    return CutLocusClass.REGULAR


def _polar_angle(c: float, s: float) -> float:
    # Continuous polar angle along the optimal segment (c >= 0): in complex
    # form x + iy = (k1 - i k2) e^{ics}, so the angle is cs - atan2(k2, k1).
    k1, k2 = k1k2(c, s)
    return c * s - math.atan2(k2, k1)


def _rising_crossing(c: float, r: float, radial: float,
                     c_tangent: float) -> float | None:
    """Half-time of the outbound crossing of radius r, or None if the
    optimal segment never grows to radius r."""
    if c <= C_ORTHOGONAL:
        # Radius is increasing over the whole optimal segment, so the
        # terminal radius |x_int| decides reachability; |x_int| >= 3 on this
        # parameter range, which short-circuits all targets with r <= 3, and
        # a crossing before s = pi/c is always inside the horizon (this also
        # avoids materializing the possibly astronomic |x_int| for tiny c).
        if c > 0.0 and r > 3.0:
            s_rise = inverse_sinhc_scaled(1.0 - c * c, radial)
            if s_rise <= math.pi / c:
                return s_rise
            if r > -x_int(c) * (1.0 + 1e-15):
                return None
            return s_rise
    elif c > c_tangent:
        # Peak radius c/sqrt(c^2-1) falls short of r.  Comparing against
        # c_tangent = r/radial keeps this decision exactly consistent with
        # the bisection bracket endpoint.
        return None
    return inverse_sinhc_scaled(1.0 - c * c, radial)


def _falling_crossing(c: float, r: float, radial: float,
                      c_tangent: float) -> float | None:
    """Half-time of the inbound crossing of radius r, or None when it lies
    beyond the optimality horizon (or the radius is never reached)."""
    if c <= 1.0 or c > c_tangent:
        return None
    v = math.sqrt(c * c - 1.0)
    s_fall = (math.pi - math.asin(min(v * radial, 1.0))) / v
    if s_fall > s_int(c) * (1.0 + 1e-12):
        return None
    return s_fall


def _solve_on_axis(r: float) -> tuple[float, float]:
    """Parameter and crossing time for a target (-r, 0) with r >= 1."""
    if r <= 1.0 + SINGULAR_BAND:
        return C_LANDING, s_int(C_LANDING)
    f = lambda c: -x_int(c) - r
    c_hi = C_LANDING
    c_lo = 0.5
    while f(c_lo) <= 0.0:
        c_lo *= 0.5
        if c_lo < 1e-8:
            raise NoRootError(f"could not bracket the axis target at x = {-r}")
    c = bisect_newton(f, c_lo, c_hi)
    return c, s_int(c)


def distance_to_class(p: QuotientPoint) -> DistanceResult:
    """Minimizing (t_f, c, s) with planar_geodesic(c, s) = p and t_f = 2s.

    The sign of c matches the sign of y; targets on the cut locus get the
    c > 0 representative and the on_cut_locus flag.  Points strictly inside
    the unit disc are not in the quotient and raise UnreachableError.
    """
    x, y = float(p[0]), float(p[1])
    for name, value in (("x", x), ("y", y)):
        if not math.isfinite(value):
            raise NonFiniteError(f"target coordinate {name} = {value} is not finite")
    r_sq = x * x + y * y
    if r_sq < 1.0 - SINGULAR_BAND:
        raise UnreachableError(f"({x}, {y}) lies inside the unit disc")
    if math.hypot(x - 1.0, y) <= SINGULAR_BAND:
        raise StartPointError("target coincides with the start point (1, 0)")
    r = math.sqrt(r_sq)
    mirror = y < 0.0
    ya = abs(y)

    if ya <= SINGULAR_BAND:
        if x >= 1.0:
            s = math.acosh(max(x, 1.0))
            return DistanceResult(2.0 * s, 0.0, s, False)
        # x <= -1: cut-locus segment, reached by the +-c pair.
        c, s = _solve_on_axis(r)
        return DistanceResult(2.0 * s, c, s, True)

    beta = math.atan2(ya, x)
    if abs(r_sq - 1.0) <= SINGULAR_BAND:
        # Landing targets: the landing angle is beta when c/sqrt(c^2-1)
        # equals 1 + beta/pi, a closed-form condition.
        rho = 1.0 + beta / math.pi
        c = rho / math.sqrt(rho * rho - 1.0)
        s = landing_time(c)
        return DistanceResult(2.0 * s, -c if mirror else c, s, True)

    radial = math.sqrt(r_sq - 1.0)
    c_tangent = r / radial  # largest parameter whose peak radius reaches r

    def g_rising(c: float) -> float:
        s = _rising_crossing(c, r, radial, c_tangent)
        return _FAR if s is None else _polar_angle(c, s) - beta

    if g_rising(c_tangent) >= 0.0:
        c = bisect_newton(g_rising, 0.0, c_tangent)
        s = _rising_crossing(c, r, radial, c_tangent)
    else:
        def g_falling(c: float) -> float:
            s = _falling_crossing(c, r, radial, c_tangent)
            return _FAR if s is None else _polar_angle(c, s) - beta

        c = bisect_newton(g_falling, 1.0 + 1e-12, c_tangent)
        s = _falling_crossing(c, r, radial, c_tangent)
    if s is None:  # pragma: no cover - bisection always lands reachable
        raise NoRootError(f"no optimal geodesic through ({x}, {y})")
    return DistanceResult(2.0 * s, -c if mirror else c, s, False)


def solve(xi: np.ndarray, xf: np.ndarray) -> SynthesisSolution:
    """Minimizing geodesic data from Xi to Xf.

    Reduces to the identity problem for X_hat = Xf Xi^{-1}, solves the
    planar problem for (c, t_f), lifts with the fixed direction P = A2, and
    conjugates by the recovered rotation to align the lift with X_hat.  The
    geodesic itself is t -> exp((c A0 + P) t) exp(-c A0 t) Xi.
    """
    xf_hat = xf @ adjugate(xi)
    p = project(xf_hat)
    if math.hypot(p.x - 1.0, p.y) <= SINGULAR_BAND:
        raise StartPointError("Xf and Xi coincide: the geodesic is a point")
    dist = distance_to_class(p)
    y_f = lift(dist.c, 0.5 * math.pi, dist.t_f)
    k = recover_rotation(y_f, xf_hat).matrix
    direction = k @ _A2 @ k.T
    recon = lift_with_direction(dist.c, direction, dist.t_f)
    residual = float(np.linalg.norm(recon - xf_hat))
    if residual > SYNTH_TOL * max(1.0, float(np.linalg.norm(xf_hat))):
        raise NoRootError(f"endpoint residual {residual} exceeds {SYNTH_TOL}")
    return SynthesisSolution(c=dist.c, t_f=dist.t_f, P=direction, K=k,
                             residual=residual, on_cut_locus=dist.on_cut_locus)


def verify_solution(sol: SynthesisSolution, xi: np.ndarray, xf: np.ndarray) -> float:
    """Frobenius error of the reconstructed endpoint against Xf."""
    recon = lift_with_direction(sol.c, sol.P, sol.t_f) @ xi
    return float(np.linalg.norm(recon - xf))


def check_fan_monotone(r: float, n: int = 128) -> float:
    """Largest violation of the angular fan ordering at radius r.

    Samples the rising-crossing angles over increasing c (they must not
    decrease) and the falling-crossing angles (they must not increase) and
    returns the worst monotonicity defect, 0.0 for a clean fan.  Used as a
    runtime validation of the ordering the bisection in
    :func:`distance_to_class` relies on.
    """
    if r <= 1.0:
        raise UnreachableError("fan check needs a radius strictly above 1")
    radial = math.sqrt(r * r - 1.0)
    c_tangent = r / radial
    worst = 0.0
    rising = []
    for i in range(n):
        c = c_tangent * (i + 1) / n
        s = _rising_crossing(c, r, radial, c_tangent)
        if s is not None:
            rising.append(_polar_angle(c, s))
    for a, b in zip(rising, rising[1:]):
        worst = max(worst, a - b)
    falling = []
    for i in range(n):
        c = 1.0 + (c_tangent - 1.0) * (i + 1) / n
        s = _falling_crossing(c, r, radial, c_tangent)
        if s is not None:
            falling.append(_polar_angle(c, s))
    for a, b in zip(falling, falling[1:]):
        worst = max(worst, b - a)
    return worst
