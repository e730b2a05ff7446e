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

from .errors import BadGridError, NonFiniteError
from .geodesics import landing_point


def _rate(omega: float, s: float) -> float:
    # The rate mu = sqrt(1 + omega^2), once the angles mu*s and omega*s are
    # known to be finite.
    mu = math.sqrt(1.0 + omega * omega)
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


def su2_curve(omega: float, s_max: float, n: int) -> list[tuple[float, float]]:
    """Points of the omega-geodesic at s = s_max*i/(n-1), i = 0..n-1.

    Each point equals su2_planar_geodesic at its s, bit for bit, and the
    -omega curve is exactly (x, -y) of the omega curve.  Every point lies
    in the disc, so one check of the angles at s_max covers the curve.
    """
    mu = _rate(omega, s_max)
    ratio = omega / mu
    last = n - 1
    points = []
    for i in range(n):
        s = s_max * i / last
        cos_m, sin_m = math.cos(mu * s), math.sin(mu * s)
        cos_o, sin_o = math.cos(omega * s), math.sin(omega * s)
        points.append((cos_m * cos_o + ratio * sin_m * sin_o,
                       cos_m * sin_o - ratio * sin_m * cos_o))
    return points


def su2_landing_time(omega: float) -> float:
    """Time pi/sqrt(1+omega^2) at which the geodesic reaches the circle."""
    return math.pi / math.sqrt(1.0 + omega * omega)


def su2_landing_point(omega: float) -> tuple[float, float]:
    """Circle point where the omega-geodesic loses optimality."""
    angle = omega * math.pi / math.sqrt(omega * omega + 1.0)
    return -math.cos(angle), -math.sin(angle)


def c_of_omega(omega: float) -> float:
    """SL(2) landing parameter whose endpoint matches the omega-geodesic.

    Monotone decreasing on each branch: omega >= 0 maps into (-inf, -2/sqrt(3)]
    and omega <= 0 maps into [2/sqrt(3), inf); only |c| = 2/sqrt(3) is
    attained, at omega = 0 (on the nonnegative branch).

    With r = sqrt(omega^2 + 1) and a = |omega|, c^2 is
    (5a^2 + 4 - 4ar)/(4a^2 + 3 - 4ar) = (2r - a)^2 (r + a)/(3r - a); the
    factored form has no cancellation, so c keeps full relative accuracy
    for every omega whose r is finite.
    """
    r = math.sqrt(omega * omega + 1.0)
    a = abs(omega)
    c = (2.0 * r - a) * math.sqrt((r + a) / (3.0 * r - a))
    return -c if omega >= 0.0 else c


def landing_match_error(omega: float) -> float:
    """Distance between the SU(2) landing point and the matched SL(2) one."""
    ux, uy = su2_landing_point(omega)
    lp = landing_point(c_of_omega(omega))
    return math.hypot(ux - lp.x, uy - lp.y)


def reachable_boundary(s: float, n: int) -> list[tuple[float, float]]:
    """Boundary of the time-s reachable set in the disc.

    Sweeps omega over a grid uniform in arctan(omega) (resolving both small
    and large parameters) and emits each geodesic at time s, clipped at its
    landing time: geodesics that have already landed contribute their circle
    point.
    """
    if n < 2:
        raise BadGridError(f"need at least 2 boundary samples, got {n}")
    if not s > 0.0:
        raise BadGridError(f"time must be positive, got {s}")
    points = []
    for i in range(n):
        u = -0.5 * math.pi + math.pi * (i + 0.5) / n
        omega = math.tan(u)
        points.append(su2_planar_geodesic(omega, min(s, su2_landing_time(omega))))
    return points
