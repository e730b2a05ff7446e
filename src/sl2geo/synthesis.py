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
  * the fan's three parts (falling, rising trigonometric and hyperbolic
    crossings) each have a coordinate dense at their own small end; the
    gap's signs at the two junctions pick the part, whose root search finds
    every target outside the circle at its own angle, the bands included;
    only the exact positive axis is closed-form.  The search is Brent's
    zeroin, or bisection where the objective carries the horizon sentinel.

Cut-locus targets (unit circle, or the axis with x <= -1) are reached by
several minimizing geodesics; one representative is returned with a flag.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (_A2_ENTRIES, _align, _check_unimodular, _finite, _grid,
                       _mul, bisect, coshc_sinhc, zeroin)
from .algebra import _entries, _matrix
from .errors import (NoRootError, NonFiniteError, StartPointError,
                     UnreachableError)
from .geodesics import (C_ORTHOGONAL, k1k2, landing_time, lift_with_direction,
                        s_int, x_int)
from .quotient import project
from .tolerances import ROTATION_FLOOR, SERIES_CUTOFF, SINGULAR_BAND, SYNTH_TOL
from .types import (CutLocusClass, DistanceResult, QuotientPoint,
                    SynthesisSolution)

_FAR = 1e9  # sentinel angle for rising crossings beyond the optimality horizon
_SLACK = 1.0 + 1e-15  # the horizon test's margin on the terminal radius |x_int|
_X_INT_1 = x_int(1.0)  # the c = 1 terminal point, read by every junction gap
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
    """(falling, rising, hyperbolic, crossing) for the fan at radius sqrt(1 + radial^2).

    The parts, by decreasing angle, return the gap c s - atan2(k2, k1) - beta
    (k2 = c radial) in one Python frame, all intermediates finite:
      * falling(delta), delta in (0, pi/2]: v = sqrt(c^2 - 1) = sin(delta)/radial,
        s = (pi - delta)/v, k1 = -cos(delta); unbounded as delta -> 0;
      * rising(eps), eps = pi - delta in (0, pi/2]: v = sin(eps)/radial,
        s = radial eps/sin(eps), k1 = cos(eps); c -> 1 as eps -> 0;
      * hyperbolic(c), c in [0, 1]: a = radial sqrt(1 - c^2), k1 = hypot(1, a),
        s = asinh(a)/sqrt(1 - c^2) (a series near a = 0); angle 0 at c = 0.
    With g = c/v - 1 = 1/(v (c + v)) and X = g sin cos/(1 + g sin^2), the
    angle is g (pi - delta) + atan(X) or g eps - atan(X), free of the
    cancellation near pi and just outside the circle.  Past the horizon of a
    target at r > 3 (r = 0 skips the test) the rising parts return _FAR: only
    rising c <= C_ORTHOGONAL crosses the axis, the radius grows over the optimal
    segment, s <= pi/c is always inside, and so is an x_int that overflows; the
    c = 1 junction reads _X_INT_1.  crossing(part, t) evaluates part at t with the
    test off and returns its (c >= 0, s, k1); both go with the guard (ROADMAP 2).
    """
    horizon = r > 3.0
    c = s = k1 = 0.0

    def falling(delta: float) -> float:
        nonlocal c, s, k1
        sin_d = math.sin(delta)
        v = sin_d / radial
        c = math.sqrt(1.0 + v * v)
        g = 1.0 / (v * (c + v))
        s, k1 = (math.pi - delta) / v, -math.cos(delta)
        x = g * sin_d * -k1 / (1.0 + g * sin_d * sin_d)
        return g * (math.pi - delta) + math.atan(x) - beta

    def rising(eps: float) -> float:
        nonlocal c, s, k1
        sin_e = math.sin(eps)
        v = sin_e / radial
        c = math.sqrt(1.0 + v * v)
        g = 1.0 / (v * (c + v))
        s, k1 = radial * (eps / sin_e), math.cos(eps)
        if horizon and c <= C_ORTHOGONAL and s > math.pi / c and r > -x_int(c) * _SLACK:
            return _FAR
        return g * eps - math.atan(g * sin_e * k1 / (1.0 + g * sin_e * sin_e)) - beta

    def hyperbolic(t: float) -> float:
        nonlocal c, s, k1
        c, q = t, math.sqrt(1.0 - t * t)
        a = radial * q
        w = a * a
        if w < SERIES_CUTOFF:
            s = radial * (1.0 - w * (1.0 / 6.0 - w * (3.0 / 40.0 - w * 15.0 / 336.0)))
        else:
            s = math.asinh(a) / q
        k1 = math.hypot(1.0, a)
        try:
            if (horizon and 0.0 < c and s > math.pi / c
                    and r > -(x_int(c) if c < 1.0 else _X_INT_1) * _SLACK):
                return _FAR
        except NonFiniteError:
            pass
        return c * s - math.atan2(c * radial, k1) - beta

    def crossing(part, t: float) -> tuple[float, float, float]:
        nonlocal horizon
        horizon, on = False, horizon  # each part sets (c, s, k1) before the test
        part(t)
        horizon = on
        return c, s, k1

    return falling, rising, hyperbolic, crossing


def distance_to_class(p: QuotientPoint) -> DistanceResult:
    """Minimizing (t_f, c, s) with planar_geodesic(c, s) = p and t_f = 2s.

    c has the sign of y, in the axis bands too (c > 0 on the cut at y = +-0.0),
    and on_cut_locus agrees with classify_cut_locus.  Points strictly inside
    the unit disc are not in the quotient and raise UnreachableError.
    """
    x, y = float(p[0]), float(p[1])
    r_sq = x * x + y * y
    if r_sq < 1.0 - SINGULAR_BAND:
        raise UnreachableError(f"({x}, {y}) lies inside the unit disc")
    if math.isfinite(r_sq):
        return _distance(x, y, math.sqrt(r_sq - 1.0) if r_sq > 1.0 else 0.0)
    _finite("target coordinate x", x)
    _finite("target coordinate y", y)
    r = math.hypot(x, y)  # r^2 overflows, r need not
    _finite("target radius", r)
    return _distance(x, y, math.sqrt(r - 1.0) * math.sqrt(r + 1.0))


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
    # Landing targets land at angle beta when c/sqrt(c^2-1) = rho = 1 + beta/pi.
    rho = 1.0 + beta / math.pi
    inv_v = math.sqrt(rho * rho - 1.0)  # 1/sqrt(c^2 - 1) at that landing
    if radial <= ROTATION_FLOOR:  # a rotation to rounding, as in _align
        # Band targets outside the circle stop short and take the fan search.
        c = rho / inv_v
        s = landing_time(c)
        return DistanceResult(2.0 * s, -c if mirror else c, s, True)

    # Axis-cut targets skip the horizon test, and so take zeroin: their
    # answers lie on or just inside the horizon, so the sign of the angle gap
    # already is that test.
    r = 0.0 if stratum is _AXIS_CUT else math.hypot(x, y)
    falling, rising, hyperbolic, crossing = _fan(radial, beta, r)
    find = bisect if r > 3.0 else zeroin
    # The gap falls through the tangent and c = 1 to -beta at c = 0: its
    # signs at those two junctions pick the part that holds the root.
    tangent = falling(0.5 * math.pi)
    if tangent <= 0.0:
        # As radial -> 0 the falling root tends to the landing asymptote,
        # sin(delta) = radial/inv_v: one gap at 4x that delta halves the
        # bracket.  Falling parts carry no horizon test, so zeroin searches.
        part, lo, f_lo, hi, f_hi = falling, 0.0, math.inf, 0.5 * math.pi, tangent
        cut = 4.0 * math.asin(radial / inv_v) if radial < inv_v else hi
        if cut < hi:
            f_cut = falling(cut)
            lo, f_lo, hi, f_hi = ((cut, f_cut, hi, f_hi) if f_cut > 0.0
                                  else (lo, f_lo, cut, f_cut))
        t = zeroin(falling, lo, hi, f_lo, f_hi)
    elif (junction := hyperbolic(1.0)) < 0.0:
        part, t = rising, find(rising, 0.0, 0.5 * math.pi, junction, tangent)
    else:
        part, t = hyperbolic, find(hyperbolic, 0.0, 1.0, -beta, junction)
    c, s, _ = crossing(part, t)
    return DistanceResult(2.0 * s, -c if mirror else c, s, stratum is not _REGULAR)


def solve(xi: np.ndarray, xf: np.ndarray) -> SynthesisSolution:
    """Minimizing geodesic data from Xi to Xf.

    Reduces to the identity problem for X_hat = Xf Xi^{-1} and solves the
    planar problem for (c, t_f = 2s).  The A2 lift of that answer has the
    symmetric part sqrt(r^2 - 1) (cos cs, sin cs), which gives the rotation
    K onto X_hat's in closed form; solve lifts once, with P = K A2 K^T.  The
    geodesic is t -> exp((c A0 + P) t) exp(-c A0 t) Xi.  Xi is checked to be
    in SL(2); with det(X_hat) = 1 that makes det(Xf) = 1 too.
    Each matrix is read once; the group algebra runs in this frame on float
    entries, as the _kernels cores do it, and P and K are the only arrays built.
    """
    e, f, g, h = xi = _entries(xi)
    _check_unimodular(xi)
    a, b, c, d = _entries(xf)
    # X_hat = Xf adj(Xi), its class (x, y) and symmetric part (m, k): |(m, k)|^2 = r^2 - 1.
    a, b, c, d = x_hat = (a * h - b * g, b * e - a * f, c * h - d * g, d * e - c * f)
    _check_unimodular(x_hat)
    x, y, m, k = 0.5 * (a + d), 0.5 * (b - c), 0.5 * (a - d), 0.5 * (b + c)
    t_f, c_f, s, cut = _distance(x, y, radial := math.hypot(m, k))
    rot, _ = _align(radial * math.cos(c_f * s), radial * math.sin(c_f * s), m, k)
    p0, p1, p2, p3 = direction = _mul(_mul(rot, _A2_ENTRIES), (rot[0], rot[2], rot[1], rot[3]))
    hc, w = 0.5 * c_f, 0.5 * c_f * t_f  # exp(-c A0 t_f) = [[cw, sw], [-sw, cw]]
    cw, sw = coshc_sinhc(-(w * w))
    sw *= w
    a, b, c, d = p0 * t_f, (p1 - hc) * t_f, (p2 + hc) * t_f, p3 * t_f  # lift with K A2 K^T
    ch, sh = coshc_sinhc(-(a * d - b * c))
    a, b, c, d = ch + sh * a, sh * b, sh * c, ch + sh * d
    a, b, c, d = a * cw - b * sw, a * sw + b * cw, c * cw - d * sw, c * sw + d * cw
    _check_unimodular((a, b, c, d))
    residual = math.dist((a, b, c, d), x_hat)
    if residual > SYNTH_TOL * max(1.0, math.hypot(*x_hat)):
        raise NoRootError(f"endpoint residual {residual} exceeds {SYNTH_TOL}")
    return SynthesisSolution(c=c_f, t_f=t_f, P=_matrix(direction), K=_matrix(rot),
                             residual=residual, on_cut_locus=cut)


def verify_solution(sol: SynthesisSolution, xi: np.ndarray, xf: np.ndarray) -> float:
    """Frobenius error of the reconstructed endpoint against Xf."""
    recon = lift_with_direction(sol.c, sol.P, sol.t_f) @ xi
    return float(np.linalg.norm(recon - xf))


def check_fan_monotone(r: float, n: int = 128) -> float:
    """Largest violation of the angular fan ordering at radius r.

    Walks the three parts of the fan that :func:`distance_to_class` searches,
    with n samples on each, in order of increasing angle: c up to 1, then
    pi - delta up to the tangent, then delta down from it.  It keeps the
    optimal crossings (s <= s_int(c)), whose polar angles (from k1k2, not
    the search's closed form) must not decrease, and returns the worst
    decrease, 0.0 for a clean fan.  Used as a runtime validation of the
    ordering the search relies on.
    """
    _finite("fan radius r", r)
    if r <= 1.0:
        raise UnreachableError("fan check needs a radius strictly above 1")
    if not math.isfinite(r * r):
        raise NonFiniteError(f"squared radius of r = {r} overflows")
    _grid(1.0, n)
    falling, rising, hyperbolic, crossing = _fan(math.sqrt(r * r - 1.0))
    walk = ([(hyperbolic, i / n) for i in range(1, n + 1)]
            + [(rising, 0.5 * math.pi * i / n) for i in range(1, n + 1)]
            + [(falling, 0.5 * math.pi * i / n) for i in range(n - 1, 0, -1)])
    angles = [_polar_angle(c, s) for c, s, _ in (crossing(*step) for step in walk)
              if s <= s_int(c)]
    return max([0.0] + [a - b for a, b in zip(angles, angles[1:])])
