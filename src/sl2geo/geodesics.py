"""Closed-form planar geodesics and their sub-Riemannian lifts.

Every geodesic from (1, 0) is indexed by a real parameter c.  With
s = t/2 and z = (1 - c^2) s^2 the planar curve is

    x(s) = k1 cos(cs) + k2 sin(cs),   y(s) = k1 sin(cs) - k2 cos(cs),
    k1 = coshc(z),                    k2 = c s sinhc(z),

which covers the hyperbolic (|c| < 1), linear (|c| = 1) and trigonometric
(|c| > 1) regimes in one expression.  In complex form x + iy =
(k1 - i k2) e^{ics}: the polar angle grows monotonically and the squared
distance from the circle is x^2 + y^2 - 1 = (s sinhc(z))^2.

Optimality ends at s_int(c): the first crossing of the x-axis for
0 < |c| <= 2/sqrt(3), or the landing on the unit circle for larger |c|.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (_direction, _finite, _grid, _lift_with_direction,
                       bisect, coshc_sinhc)
from .algebra import _entries, _matrix
from .errors import (NonFiniteError, NoRootError, OutOfRegimeError,
                     UnboundedError)
from .tolerances import HUGE_PARAM, REGIME_TOL, SERIES_CUTOFF
from .types import PathSample, PlanarJet, QuotientPoint

C_LANDING = 2.0 / math.sqrt(3.0)
"""Boundary parameter: the |c| = 2/sqrt(3) geodesics end exactly at (-1, 0)."""

C_ORTHOGONAL = 3.0 / (2.0 * math.sqrt(2.0))
"""The |c| = 3/(2 sqrt(2)) geodesics cross the x-axis orthogonally."""


def k1k2(c: float, s: float) -> tuple[float, float]:
    """Radial components (k1, k2) of the planar geodesic at half-time s.

    An unguarded kernel: its callers check that c*s and (1 - c^2) s^2 are finite.
    """
    ch, sh = coshc_sinhc((1.0 - c * c) * s * s)
    return ch, c * s * sh


def _end(c: float, s: float, values, name: str = "s", what: str = "the geodesic"):
    # The one overflow check of the geodesic at half-time s: returns the
    # values computed there once all are finite.
    if not all(map(math.isfinite, values)):
        raise NonFiniteError(f"c = {c} with {name} = {s} overflows {what}")
    return values


def _reach(c: float, s: float, name: str = "s") -> None:
    # Typed errors for a non-finite c or s, and for finite ones whose angle
    # c*s or z = (1 - c^2) s^2 overflows, where cos and sin would raise.
    # k1 = cosh(sqrt(z)) can still overflow, so callers check their end too.
    _finite("geodesic parameter c", c)
    _finite(name, s)
    _end(c, s, (c * s, (1.0 - c * c) * s * s), name)


def planar_geodesic(c: float, s: float) -> QuotientPoint:
    """Point of the c-geodesic at half-time s; starts at (1, 0)."""
    _reach(c, s)
    k1, k2 = k1k2(c, s)
    cos_cs = math.cos(c * s)
    sin_cs = math.sin(c * s)
    return _end(c, s, QuotientPoint(k1 * cos_cs + k2 * sin_cs,
                                    k1 * sin_cs - k2 * cos_cs))


def planar_jet(c: float, s: float) -> PlanarJet:
    """Position, velocity and acceleration with respect to arclength t = 2s.

    The s-velocity is E(s) (cos(cs), sin(cs)) with E = s sinhc(z), and
    dE/ds = k1, which gives closed-form accelerations; the factors 1/2 and
    1/4 convert to t-derivatives.
    """
    _reach(c, s)
    k1, sh = coshc_sinhc((1.0 - c * c) * s * s)
    k2 = c * s * sh
    speed = s * sh
    cos_cs = math.cos(c * s)
    sin_cs = math.sin(c * s)
    return _end(c, s, PlanarJet(
        x=k1 * cos_cs + k2 * sin_cs,
        y=k1 * sin_cs - k2 * cos_cs,
        vx=0.5 * speed * cos_cs,
        vy=0.5 * speed * sin_cs,
        ax=0.25 * (k1 * cos_cs - k2 * sin_cs),
        ay=0.25 * (k1 * sin_cs + k2 * cos_cs),
    ))


def radius_sq(c: float, s: float) -> float:
    """Squared distance from the origin, k1^2 + k2^2."""
    _reach(c, s)
    k1, k2 = _end(c, s, k1k2(c, s))
    return _end(c, s, (k1 * k1 + k2 * k2,), "s", "the squared radius")[0]


def _landing_rate(c: float) -> float:
    # sqrt(c^2 - 1) for |c| >= 2/sqrt(3), |c| to double precision past HUGE_PARAM.
    _finite("geodesic parameter c", c)
    if abs(c) < C_LANDING * (1.0 - REGIME_TOL):
        raise OutOfRegimeError(f"|c| = {abs(c)} < 2/sqrt(3): no landing")
    return math.sqrt(c * c - 1.0) if abs(c) <= HUGE_PARAM else abs(c)


def landing_time(c: float) -> float:
    """Half-time pi/sqrt(c^2-1) at which the geodesic touches the circle.

    Defined for |c| >= 2/sqrt(3); beyond that touch the geodesic is no
    longer optimal.
    """
    return math.pi / _landing_rate(c)


def landing_point(c: float) -> QuotientPoint:
    """Point on the unit circle reached at the landing time."""
    rate = _landing_rate(c)
    if abs(c) <= HUGE_PARAM:
        alpha = c * math.pi / rate
    else:
        # sqrt(c^2 - 1) is |c| to double precision: alpha is +-pi.
        alpha = math.copysign(math.pi, c)
    return QuotientPoint(-math.cos(alpha), -math.sin(alpha))


def s_int(c: float) -> float:
    """Half-time at which the c-geodesic stops being optimal.

    For 0 < |c| <= 2/sqrt(3) this is the first crossing of the x-axis: the
    root of y(s) on [pi/|c|, 2 pi/|c|] for |c| > 1, and for |c| <= 1 that of
    y/k1 (y overflows as c -> 0) on [F(pi/|c|), F(1.5 pi/|c|)], where
    F(s) = (pi + atan(k2/k1))/|c|.  For larger |c| it is the landing time.
    c = 0 runs along the positive axis forever and raises UnboundedError.
    """
    _finite("geodesic parameter c", c)
    ac = abs(c)
    if ac == 0.0:
        raise UnboundedError("the c = 0 geodesic never leaves the x-axis")
    if ac > C_LANDING:
        return landing_time(c)
    # Each objective is y inline, with k1k2's operations in order: one frame a step.
    q, lo = 1.0 - ac * ac, math.pi / ac
    if ac <= 1.0:
        hi = 1.5 * math.pi / ac
        if hi == math.inf:  # |c| below ~2.6e-308
            _end(c, hi, (hi,))
        w = math.sqrt(q)
        c_w = ac / w if w else 0.0  # at |c| = 1, z = 0 always takes the series

        def y(s: float) -> float:  # y/k1 = sin(cs) - tau cos(cs), tau = k2/k1
            cs, z = ac * s, q * s * s
            tau = (cs * (1.0 - z * (1.0 / 3.0 - z * 2.0 / 15.0)) if z < SERIES_CUTOFF
                   else c_w * math.tanh(w * s))
            return math.sin(cs) - tau * math.cos(cs)
        # tau grows with s, so the crossing, the fixed point of the increasing
        # F(s) = (pi + atan tau(s))/|c|, lies in [F(lo), F(hi)]: the loop
        # turns (lo, hi) into that pair, with tau computed as y computes it.
        for s in (lo, hi):
            z = q * s * s
            tau = (ac * s * (1.0 - z * (1.0 / 3.0 - z * 2.0 / 15.0)) if z < SERIES_CUTOFF
                   else c_w * math.tanh(w * s))
            lo, hi = hi, (math.pi + math.atan(tau)) / ac
    else:
        hi = 2.0 * math.pi / ac

        def y(s: float) -> float:  # z < 0 on this bracket
            cs, z = ac * s, q * s * s
            if -z < SERIES_CUTOFF:
                k1 = 1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0))
                sh = 1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0))
            else:
                v = math.sqrt(-z)
                k1, sh = math.cos(v), math.sin(v) / v
            return k1 * math.sin(cs) - cs * sh * math.cos(cs)

    try:
        return bisect(y, lo, hi, y(lo), y(hi))
    except NoRootError:
        # Rounding put the crossing past a bracket end, the crossing to rounding:
        # F(lo) ~ F(hi) where tanh saturates (|c| < ~0.2), y(hi) > 0 at 2/sqrt(3).
        return lo if ac <= 1.0 else hi


def x_int(c: float) -> float:
    """x-coordinate (negative) of the first x-axis crossing, 0 < |c| <= 2/sqrt(3)."""
    _finite("geodesic parameter c", c)
    ac = abs(c)
    if ac == 0.0:
        raise UnboundedError("the c = 0 geodesic never crosses the negative axis")
    if ac > C_LANDING:
        raise OutOfRegimeError(f"|c| = {ac} > 2/sqrt(3): geodesic lands instead")
    s = s_int(ac)  # hypot, as k1^2 + k2^2 overflows for c below ~0.0088
    return -math.hypot(*_end(ac, s, k1k2(ac, s)))


def lift_with_direction(c: float, p: np.ndarray, t: float) -> np.ndarray:
    """Sub-Riemannian geodesic exp((c A0 + P) t) exp(-c A0 t) for unit P.

    Its projection is planar_geodesic(c, t/2); c and s = t/2 are checked
    as there, P's entries are finite, and so are the determinants of the two
    exponents, (c t/2)^2 and det((c A0 + P) t), which can overflow where z
    does not (|c| = 1, huge P).
    """
    _reach(c, 0.5 * t)
    p0, p1, p2, p3 = p = _entries(p)
    for entry in p:
        _finite("entry of P", entry)
    a, b, g, d = p0 * t, (p1 - 0.5 * c) * t, (p2 + 0.5 * c) * t, p3 * t  # as the core
    _end(c, 0.5 * t, (0.5 * c * t * (0.5 * c * t), a * d - b * g), "s", "the lift's determinant")
    return _matrix(_end(c, 0.5 * t, _lift_with_direction(c, p, t)))


def lift(c: float, phi: float, t: float) -> np.ndarray:
    """Lift of the planar geodesic: projects to planar_geodesic(c, t/2).

    The projection is independent of phi, which only rotates the
    representative within the conjugacy class.
    """
    _reach(c, 0.5 * t)
    _finite("phi", phi)
    _end(c, 0.5 * t, (0.5 * c * t * (0.5 * c * t),), "s", "the lift's determinant")
    return _matrix(_end(c, 0.5 * t, _lift_with_direction(c, _direction(phi), t)))


def planar_curve(c: float, s_max: float, n: int) -> list[float]:
    """Flat coordinates [x0, y0, x1, y1, ...] of the c-geodesic at
    s = s_max*i/(n-1), i = 0..n-1.

    Each (x, y) equals planar_geodesic at its s, bit for bit, and the -c
    curve is exactly (x, -y) of the c curve: z and k1 depend on c^2 only,
    k2 and sin(cs) are odd in c, cos(cs) is even, and negation is exact.
    """
    _finite("geodesic parameter c", c)
    _grid(s_max, n)
    _reach(c, s_max, "s_max")
    q = 1.0 - c * c
    last = n - 1
    xy = []
    for i in range(n):
        s = s_max * i / last
        k1, sh = coshc_sinhc(q * s * s)
        cs = c * s
        k2 = cs * sh
        cos_cs, sin_cs = math.cos(cs), math.sin(cs)
        xy.append(k1 * cos_cs + k2 * sin_cs)
        xy.append(k1 * sin_cs - k2 * cos_cs)
    # One check per curve: for |c| <= 1 the radius grows monotonically
    # along s, and coshc_sinhc saturates to inf, so the end point is the
    # largest; for |c| > 1 every point is bounded by 1 + |c s_max|, finite
    # by the check above.
    _end(c, s_max, xy[-2:], "s_max")
    return xy


def sample_path(c: float, s_max: float, n: int) -> list[PathSample]:
    """n uniform samples of the planar geodesic on [0, s_max]."""
    xy = planar_curve(c, s_max, n)
    return [PathSample(s_max * i / (n - 1), xy[2 * i], xy[2 * i + 1])
            for i in range(n)]
