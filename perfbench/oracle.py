"""Ground truth for the benchmark, written independently of sl2geo.

Every input the benchmark feeds the library is generated forward from these
closed forms, and every answer is checked against them.  Nothing here calls
the library, so a defect in a library kernel cannot hide itself by also
corrupting the expected value.

The planar family of the paper, with s = t/2 and z = (1 - c^2) s^2, is

    x + i y = (k1 - i k2) exp(i c s),  k1 = cosh(sqrt z),
                                       k2 = c s sinh(sqrt z)/sqrt z,

evaluated here in complex arithmetic so one expression covers every regime.
"""

from __future__ import annotations

import cmath
import math

C_LANDING = 2.0 / math.sqrt(3.0)
C_ORTHOGONAL = 3.0 / (2.0 * math.sqrt(2.0))

# The endpoint problem of the paper's worked example has target (0, 3/2);
# its exact parameter, from 40-digit arithmetic, is quoted in the README.
WORKED_EXAMPLE_C = 1.2575651629220838

SYNTH_TOL = 1e-6
"""Endpoint residual bound, relative to max(1, |X_hat|)."""

ANSWER_TOL = 1e-6
"""Bound on crossing-time and planar-target errors (targets relative to
max(1, r))."""


def _cosh_sinhc(z: float) -> tuple[float, float]:
    w = cmath.sqrt(z)
    if w == 0.0:
        return 1.0, 1.0
    return cmath.cosh(w).real, (cmath.sinh(w) / w).real


def planar_point(c: float, s: float) -> tuple[float, float]:
    """Point of the c-geodesic at half-time s."""
    k1, sh = _cosh_sinhc((1.0 - c * c) * s * s)
    p = complex(k1, -c * s * sh) * cmath.exp(1j * c * s)
    return p.real, p.imag


def horizon(c: float) -> float:
    """Half-time at which the c-geodesic stops being optimal (c != 0).

    Landing on the unit circle at pi/sqrt(c^2-1) for |c| >= 2/sqrt(3) (at
    equality the landing point is (-1, 0), on the axis); otherwise the first
    crossing of the negative x-axis, which is the only
    sign change of y on [pi/|c|, 2pi/|c|] and is bisected to the last bit.
    """
    ac = abs(c)
    if ac >= C_LANDING:
        return math.pi / math.sqrt(ac * ac - 1.0)
    lo, hi = math.pi / ac, 2.0 * math.pi / ac
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if planar_point(ac, mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid


def landing_point(c: float) -> tuple[float, float]:
    """Unit-circle point where a |c| > 2/sqrt(3) geodesic lands."""
    alpha = c * math.pi / math.sqrt(c * c - 1.0)
    return -math.cos(alpha), -math.sin(alpha)


def expm_traceless(m) -> tuple[tuple[float, float], tuple[float, float]]:
    """exp(M) = cosh(w) I + sinh(w)/w M with w^2 = -det M, for traceless M."""
    (a, b), (c, d) = m
    ch, sh = _cosh_sinhc(-(a * d - b * c))
    return ((ch + sh * a, sh * b), (sh * c, ch + sh * d))


def matmul(x, y):
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def inverse_sl2(x):
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def frobenius(x) -> float:
    return math.sqrt(sum(v * v for row in x for v in row))


def lift_with_direction(c: float, p, t: float):
    """exp((c A0 + P) t) exp(-c A0 t), A0 = [[0, -1/2], [1/2, 0]]."""
    g = ((p[0][0] * t, (p[0][1] - 0.5 * c) * t),
         ((p[1][0] + 0.5 * c) * t, p[1][1] * t))
    half = 0.5 * c * t
    return matmul(expm_traceless(g),
                  ((math.cos(half), math.sin(half)),
                   (-math.sin(half), math.cos(half))))


def direction(phi: float):
    """P = cos(phi) A1 + sin(phi) A2, A1 = [[0, 1/2], [1/2, 0]],
    A2 = [[1/2, 0], [0, -1/2]]."""
    cp, sp = 0.5 * math.cos(phi), 0.5 * math.sin(phi)
    return ((sp, cp), (cp, -sp))


def su2_point(omega: float, s: float) -> tuple[float, float]:
    """Point of the SU(2) omega-geodesic in the unit disc at time s."""
    mu = math.sqrt(1.0 + omega * omega)
    p = complex(math.cos(mu * s), -omega / mu * math.sin(mu * s)) * cmath.exp(1j * omega * s)
    return p.real, p.imag


def su2_landing_time(omega: float) -> float:
    return math.pi / math.sqrt(1.0 + omega * omega)
