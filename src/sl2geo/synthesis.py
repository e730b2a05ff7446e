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
  * one fan coordinate runs up through the rising crossings, past the
    tangent and down through the falling ones, covering angles 0 -> pi and
    beyond, so one bisection finds the target.  Axis-cut targets are the
    same search at angle pi.

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
from .geodesics import (C_ORTHOGONAL, k1k2, landing_time, lift,
                        lift_with_direction, s_int, x_int)
from .quotient import project, recover_rotation
from .tolerances import SINGULAR_BAND, SYNTH_TOL
from .types import (CutLocusClass, DistanceResult, QuotientPoint,
                    SynthesisSolution)

_FAR = 1e9  # sentinel angle for rising crossings beyond the optimality horizon


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


def _fan_span(radial: float) -> float:
    """Length of the trigonometric part of the fan coordinate.

    sqrt(c^2-1) runs over (0, 1/radial], so the span grows like 1/radial
    to keep the ROOT_TOL bracket fine near the circle; it is a power of two
    so that the bracket end 1 + span maps exactly onto phi = pi.
    """
    return 2.0 ** max(0, math.ceil(-math.log2(radial)))


def _fan_point(tau: float, radial: float, span: float) -> tuple[float, float]:
    """Parameter c >= 0 and half-time s of the fan's crossing of radius r.

    The fan coordinate tau in [0, 1 + span] orders the radius-r crossings
    by polar angle.  tau <= 1 is the hyperbolic rising crossing with c = tau.
    tau > 1 sets phi = pi (tau - 1)/span and sqrt(c^2-1) = sin(phi)/radial,
    so that s = phi/sqrt(c^2-1) runs from trigonometric rising crossings
    (phi < pi/2) through the tangent (c = r/radial) to falling ones, whose
    angle grows past pi (and without bound as phi -> pi).
    """
    if tau <= 1.0:
        return tau, inverse_sinhc_scaled(1.0 - tau * tau, radial)
    phi = math.pi * (tau - 1.0) / span
    v = math.sin(phi) / radial
    return math.sqrt(1.0 + v * v), phi / v


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
    if not math.isfinite(r_sq):
        raise NonFiniteError(f"squared radius of ({x}, {y}) overflows")
    if r_sq < 1.0 - SINGULAR_BAND:
        raise UnreachableError(f"({x}, {y}) lies inside the unit disc")
    if math.hypot(x - 1.0, y) <= SINGULAR_BAND:
        raise StartPointError("target coincides with the start point (1, 0)")
    mirror = y < 0.0
    on_axis = abs(y) <= SINGULAR_BAND
    if on_axis and x >= 1.0:
        s = math.acosh(max(x, 1.0))
        return DistanceResult(2.0 * s, 0.0, s, False)
    if on_axis:
        # x <= -1: cut-locus segment, reached by the +-c pair at angle pi.
        beta, mirror = math.pi, False
    else:
        beta = math.atan2(abs(y), x)

    if abs(r_sq - 1.0) <= SINGULAR_BAND:
        # Landing targets: the landing angle is beta when c/sqrt(c^2-1)
        # equals 1 + beta/pi, a closed-form condition.
        rho = 1.0 + beta / math.pi
        c = rho / math.sqrt(rho * rho - 1.0)
        s = landing_time(c)
        return DistanceResult(2.0 * s, -c if mirror else c, s, True)

    r = math.sqrt(r_sq)
    radial = math.sqrt(r_sq - 1.0)
    span = _fan_span(radial)

    def angle_gap(tau: float) -> float:
        c, s = _fan_point(tau, radial, span)
        # Crossings past the optimality horizon have angle beyond pi >= beta,
        # as the angle grows along each geodesic; falling ones need no test.
        # Rising ones map to the sentinel: only c <= C_ORTHOGONAL crosses the
        # axis while rising, only radii r > 3 (span 1) are at stake, and the
        # radius grows over the whole optimal segment, so the terminal radius
        # |x_int| decides; a crossing before s = pi/c is always inside the
        # horizon (which avoids the possibly astronomic |x_int| for tiny c).
        # Axis targets skip the test: at beta = pi the sign of the angle gap
        # already is the horizon test, since their answer is the crossing
        # that lands on the horizon.
        if (r > 3.0 and tau <= 1.5 and not on_axis and 0.0 < c <= C_ORTHOGONAL
                and s > math.pi / c and r > -x_int(c) * (1.0 + 1e-15)):
            return _FAR
        return _polar_angle(c, s) - beta

    tau = bisect_newton(angle_gap, 0.0, 1.0 + span)
    c, s = _fan_point(tau, radial, span)
    return DistanceResult(2.0 * s, -c if mirror else c, s, on_axis)


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

    Walks the fan coordinate of :func:`distance_to_class` with n samples on
    each of its hyperbolic and trigonometric parts, keeps the optimal
    crossings (s <= s_int(c)), whose polar angles must not decrease, and
    returns the worst decrease, 0.0 for a clean fan.  Used as a runtime
    validation of the ordering the bisection relies on.
    """
    if r <= 1.0:
        raise UnreachableError("fan check needs a radius strictly above 1")
    radial = math.sqrt(r * r - 1.0)
    span = _fan_span(radial)
    angles = []
    for i in range(1, 2 * n):
        tau = i / n if i <= n else 1.0 + span * (i - n) / n
        c, s = _fan_point(tau, radial, span)
        if s <= s_int(c):
            angles.append(_polar_angle(c, s))
    return max([0.0] + [a - b for a, b in zip(angles, angles[1:])])
