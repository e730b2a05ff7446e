"""The compact sibling: planar geodesics of the SU(2) reduction.

The SU(2) quotient under the same SO(2) action is the closed unit disc, and
its planar geodesics come from the SL(2) family by the formal substitution
c -> i*omega, t -> -i*s.  Each omega-geodesic starts at (1, 0) and loses
optimality when it lands on the unit circle at s = pi/sqrt(1+omega^2); the
parameter map c(omega) below matches every SU(2) geodesic with the SL(2)
landing geodesic that ends at the same circle point.
"""

from __future__ import annotations

import math

from ._kernels import _finite, _grid
from .errors import BadGridError, NonFiniteError
from .geodesics import landing_point
from .tolerances import HUGE_PARAM


def _mu(omega: float) -> float:
    # sqrt(1 + omega^2), or |omega| past HUGE_PARAM, where NaN and inf are refused.
    if abs(omega) <= HUGE_PARAM:
        return math.sqrt(1.0 + omega * omega)
    _finite("omega", omega)
    return abs(omega)


def _rate(omega: float, s: float) -> float:
    # The rate mu = sqrt(1 + omega^2), once omega, s and the angles mu*s and
    # omega*s are known to be finite.
    mu = _mu(omega)
    _finite("s", s)
    if not (math.isfinite(mu * s) and math.isfinite(omega * s)):
        raise NonFiniteError(f"omega = {omega} with s = {s} overflows the geodesic")
    return mu


def su2_planar_geodesic(omega: float, s: float) -> tuple[float, float]:
    """Point of the omega-geodesic in the disc at time s."""
    mu = _rate(omega, s)
    cos_m, sin_m = math.cos(mu * s), math.sin(mu * s)
    cos_o, sin_o = math.cos(omega * s), math.sin(omega * s)
    ratio = omega / mu
    return (cos_m * cos_o + ratio * sin_m * sin_o,
            cos_m * sin_o - ratio * sin_m * cos_o)


def su2_curve(omega: float, s_max: float, n: int) -> list[float]:
    """Flat coordinates [x0, y0, x1, y1, ...] of the omega-geodesic at
    s = s_max*i/(n-1), i = 0..n-1.

    Each (x, y) equals su2_planar_geodesic at its s, bit for bit, and the
    -omega curve is exactly (x, -y) of the omega curve.  Every point lies
    in the disc, so one check of the angles at s_max covers the curve.
    """
    _grid(s_max, n)
    mu = _rate(omega, s_max)
    ratio = omega / mu
    last = n - 1
    xy = []
    for i in range(n):
        s = s_max * i / last
        cos_m, sin_m = math.cos(mu * s), math.sin(mu * s)
        cos_o, sin_o = math.cos(omega * s), math.sin(omega * s)
        xy.append(cos_m * cos_o + ratio * sin_m * sin_o)
        xy.append(cos_m * sin_o - ratio * sin_m * cos_o)
    return xy


def su2_landing_time(omega: float) -> float:
    """Time pi/sqrt(1+omega^2) at which the geodesic reaches the circle."""
    return math.pi / _mu(omega)


def su2_landing_point(omega: float) -> tuple[float, float]:
    """Circle point where the omega-geodesic loses optimality."""
    mu = _mu(omega)
    if abs(omega) <= HUGE_PARAM:
        angle = omega * math.pi / mu
    else:
        angle = math.copysign(math.pi, omega)  # omega/mu is +-1 exactly
    return -math.cos(angle), -math.sin(angle)


def c_of_omega(omega: float) -> float:
    """SL(2) landing parameter whose endpoint matches the omega-geodesic.

    Monotone decreasing on each branch: omega >= 0 maps into (-inf, -2/sqrt(3)]
    and omega <= 0 maps into [2/sqrt(3), inf); only |c| = 2/sqrt(3) is
    attained, at omega = 0 (on the nonnegative branch).

    With r = sqrt(omega^2 + 1) and a = |omega|, c^2 is
    (5a^2 + 4 - 4ar)/(4a^2 + 3 - 4ar) = (2r - a)^2 (r + a)/(3r - a); the
    factored form has no cancellation, so c keeps full relative accuracy.
    It is a (1 + O(1/a^2)), so beyond HUGE_PARAM c is a itself.
    """
    a, r = abs(omega), _mu(omega)
    c = (2.0 * r - a) * math.sqrt((r + a) / (3.0 * r - a)) if a <= HUGE_PARAM else a
    return -c if omega >= 0.0 else c


def landing_match_error(omega: float) -> float:
    """Distance between the SU(2) landing point and the matched SL(2) one."""
    ux, uy = su2_landing_point(omega)
    lp = landing_point(c_of_omega(omega))
    return math.hypot(ux - lp.x, uy - lp.y)


def _reachable_boundaries(times, n: int, sign: float) -> list[list[float]]:
    """Flat coordinates of the time-s reachable-set boundary for each s in
    times, from one sweep of n omegas.

    The sweep is uniform in arctan(omega), which resolves both small and
    large parameters; sign = -1.0 sweeps -omega instead, which gives the
    reflection (x, -y) of every point, bit for bit.  Each point is
    su2_planar_geodesic(omega, min(s, su2_landing_time(omega))): a geodesic
    that has landed contributes its circle point.  The rate, ratio and
    landing time of each omega are computed once for all times, and its
    circle point once, when the first time past its landing needs it.
    """
    if n < 2:
        raise BadGridError(f"need at least 2 boundary samples, got {n}")
    for s in times:
        if not s > 0.0:
            raise BadGridError(f"time must be positive, got {s}")
    sweep = []
    for i in range(n):
        omega = sign * math.tan(-0.5 * math.pi + math.pi * (i + 0.5) / n)
        mu = _mu(omega)
        sweep.append((omega, mu, omega / mu, math.pi / mu))
    landed = [None] * n
    boundaries = []
    for s in times:
        xy = []
        for i, (omega, mu, ratio, landing) in enumerate(sweep):
            if s < landing:
                cos_m, sin_m = math.cos(mu * s), math.sin(mu * s)
                cos_o, sin_o = math.cos(omega * s), math.sin(omega * s)
                xy.append(cos_m * cos_o + ratio * sin_m * sin_o)
                xy.append(cos_m * sin_o - ratio * sin_m * cos_o)
            else:
                if landed[i] is None:
                    landed[i] = su2_planar_geodesic(omega, landing)
                xy += landed[i]
        boundaries.append(xy)
    return boundaries


def reachable_boundary(s: float, n: int) -> list[tuple[float, float]]:
    """Boundary of the time-s reachable set in the disc.

    Sweeps omega over a grid uniform in arctan(omega) (resolving both small
    and large parameters) and emits each geodesic at time s, clipped at its
    landing time: geodesics that have already landed contribute their circle
    point.
    """
    xy = _reachable_boundaries((s,), n, 1.0)[0]
    return list(zip(xy[0::2], xy[1::2]))
