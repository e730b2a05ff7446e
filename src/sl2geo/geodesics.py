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

from ._kernels import bisect_newton, coshc, sinhc
from .algebra import exp2, from_coords
from .errors import BadGridError, OutOfRegimeError, UnboundedError
from .tolerances import SERIES_CUTOFF
from .types import PathSample, PlanarJet, QuotientPoint

C_LANDING = 2.0 / math.sqrt(3.0)
"""Boundary parameter: the |c| = 2/sqrt(3) geodesics end exactly at (-1, 0)."""

C_ORTHOGONAL = 3.0 / (2.0 * math.sqrt(2.0))
"""The |c| = 3/(2 sqrt(2)) geodesics cross the x-axis orthogonally."""


def k1k2(c: float, s: float) -> tuple[float, float]:
    """Radial components (k1, k2) of the planar geodesic at half-time s."""
    z = (1.0 - c * c) * s * s
    return coshc(z), c * s * sinhc(z)


def planar_geodesic(c: float, s: float) -> QuotientPoint:
    """Point of the c-geodesic at half-time s; starts at (1, 0)."""
    k1, k2 = k1k2(c, s)
    cos_cs = math.cos(c * s)
    sin_cs = math.sin(c * s)
    return QuotientPoint(k1 * cos_cs + k2 * sin_cs, k1 * sin_cs - k2 * cos_cs)


def planar_jet(c: float, s: float) -> PlanarJet:
    """Position, velocity and acceleration with respect to arclength t = 2s.

    The s-velocity is E(s) (cos(cs), sin(cs)) with E = s sinhc(z), and
    dE/ds = k1, which gives closed-form accelerations; the factors 1/2 and
    1/4 convert to t-derivatives.
    """
    z = (1.0 - c * c) * s * s
    k1 = coshc(z)
    k2 = c * s * sinhc(z)
    speed = s * sinhc(z)
    cos_cs = math.cos(c * s)
    sin_cs = math.sin(c * s)
    return PlanarJet(
        x=k1 * cos_cs + k2 * sin_cs,
        y=k1 * sin_cs - k2 * cos_cs,
        vx=0.5 * speed * cos_cs,
        vy=0.5 * speed * sin_cs,
        ax=0.25 * (k1 * cos_cs - k2 * sin_cs),
        ay=0.25 * (k1 * sin_cs + k2 * cos_cs),
    )


def radius_sq(c: float, s: float) -> float:
    """Squared distance from the origin, k1^2 + k2^2."""
    k1, k2 = k1k2(c, s)
    return k1 * k1 + k2 * k2


# One-ulp slack: 2/sqrt(3) and sqrt(4/3) round to different floats, and the
# boundary parameter must be accepted however the caller computed it.
_REGIME_SLACK = 1.0 - 1e-12


def landing_time(c: float) -> float:
    """Half-time pi/sqrt(c^2-1) at which the geodesic touches the circle.

    Defined for |c| >= 2/sqrt(3); beyond that touch the geodesic is no
    longer optimal.
    """
    if abs(c) < C_LANDING * _REGIME_SLACK:
        raise OutOfRegimeError(f"|c| = {abs(c)} < 2/sqrt(3): no landing")
    return math.pi / math.sqrt(c * c - 1.0)


def landing_point(c: float) -> QuotientPoint:
    """Point on the unit circle reached at the landing time."""
    if abs(c) < C_LANDING * _REGIME_SLACK:
        raise OutOfRegimeError(f"|c| = {abs(c)} < 2/sqrt(3): no landing")
    alpha = c * math.pi / math.sqrt(c * c - 1.0)
    return QuotientPoint(-math.cos(alpha), -math.sin(alpha))


def _y_of_s(c: float, s: float) -> float:
    k1, k2 = k1k2(c, s)
    return k1 * math.sin(c * s) - k2 * math.cos(c * s)


def _dy_ds(c: float, s: float) -> float:
    # dy/ds = s sinhc(z) sin(cs); see planar_jet.
    z = (1.0 - c * c) * s * s
    return s * sinhc(z) * math.sin(c * s)


def _tau(c: float, s: float) -> float:
    # k2/k1 = (c/w) tanh(w s) for |c| <= 1; bounded, so the normalized
    # crossing objective below never overflows even for tiny c, where the
    # raw k1, k2 grow like exp(pi/c).
    z = (1.0 - c * c) * s * s
    if z < SERIES_CUTOFF:
        return c * s * (1.0 - z * (1.0 / 3.0 - z * 2.0 / 15.0))
    w = math.sqrt(1.0 - c * c)
    return c / w * math.tanh(w * s)


def _y_reduced(c: float, s: float) -> float:
    # y(s)/k1(s): same sign and roots as y on the crossing bracket.
    return math.sin(c * s) - _tau(c, s) * math.cos(c * s)


def _dy_reduced(c: float, s: float) -> float:
    t = _tau(c, s)
    w_sq = 1.0 - c * c
    cs = c * s
    return (w_sq * t * t / c) * math.cos(cs) + c * t * math.sin(cs)


def s_int(c: float) -> float:
    """Half-time at which the c-geodesic stops being optimal.

    For 0 < |c| <= 2/sqrt(3) this is the first crossing of the x-axis,
    found as the root of y(s) on the bracket where y decreases through
    zero (normalized by k1 for |c| <= 1, where the raw values overflow as
    c -> 0); for larger |c| it coincides with the landing time.  c = 0
    runs along the positive axis forever and raises UnboundedError.
    """
    ac = abs(c)
    if ac == 0.0:
        raise UnboundedError("the c = 0 geodesic never leaves the x-axis")
    if ac > C_LANDING:
        return landing_time(c)
    lo = math.pi / ac
    if ac <= 1.0:
        hi = 1.5 * math.pi / ac
        f = lambda s: _y_reduced(ac, s)
        df = lambda s: _dy_reduced(ac, s)
    else:
        hi = 2.0 * math.pi / ac
        f = lambda s: _y_of_s(ac, s)
        df = lambda s: _dy_ds(ac, s)
        # At exactly |c| = 2/sqrt(3) the root sits on the bracket endpoint
        # and rounding can leave y(hi) marginally positive; accept it.
        if f(hi) > 0.0:
            return hi
    return bisect_newton(f, lo, hi, df)


def x_int(c: float) -> float:
    """x-coordinate (negative) of the first x-axis crossing, 0 < |c| <= 2/sqrt(3)."""
    ac = abs(c)
    if ac == 0.0:
        raise UnboundedError("the c = 0 geodesic never crosses the negative axis")
    if ac > C_LANDING:
        raise OutOfRegimeError(f"|c| = {ac} > 2/sqrt(3): geodesic lands instead")
    return -math.sqrt(radius_sq(ac, s_int(ac)))


def direction_matrix(phi: float) -> np.ndarray:
    """Unit horizontal direction P = cos(phi) A1 + sin(phi) A2."""
    return from_coords((0.0, math.cos(phi), math.sin(phi)))


def lift_with_direction(c: float, p: np.ndarray, t: float) -> np.ndarray:
    """Sub-Riemannian geodesic exp((c A0 + P) t) exp(-c A0 t) for unit P."""
    generator = from_coords((c, 0.0, 0.0)) + p
    return exp2(generator * t) @ exp2(from_coords((-c * t, 0.0, 0.0)))


def lift(c: float, phi: float, t: float) -> np.ndarray:
    """Lift of the planar geodesic: projects to planar_geodesic(c, t/2).

    The projection is independent of phi, which only rotates the
    representative within the conjugacy class.
    """
    return lift_with_direction(c, direction_matrix(phi), t)


def sample_path(c: float, s_max: float, n: int) -> list[PathSample]:
    """n uniform samples of the planar geodesic on [0, s_max]."""
    if n < 2:
        raise BadGridError(f"need at least 2 samples, got {n}")
    if not s_max > 0.0:
        raise BadGridError(f"s_max must be positive, got {s_max}")
    out = []
    for i in range(n):
        s = s_max * i / (n - 1)
        p = planar_geodesic(c, s)
        out.append(PathSample(s, p.x, p.y))
    return out
