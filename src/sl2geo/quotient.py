"""The SL(2)/SO(2) reduction.

SO(2) acts on SL(2) by conjugation X -> K X K^T.  The invariants
x = (a+d)/2 and y = (b-c)/2 identify the orbit space with the closed
exterior of the unit disc; the circle itself is the singular stratum.
On the regular part the metric

    g_Q = 4/(x^2+y^2-1) (dx^2 + dy^2)

makes the projection an isometry from the horizontal distribution, so
sub-Riemannian geodesics upstairs project to Riemannian geodesics here
with the same length.
"""

from __future__ import annotations

import math

import numpy as np

from . import geodesics
from .algebra import _entries, _matrix
from .errors import ClassMismatchError, NotUnimodularError, SingularPointError
from .tolerances import DET_TOL, MATCH_TOL, SINGULAR_BAND
from .types import PlanarJet, QuotientPoint, RecoveredRotation, TangentVec2


def _check_unimodular(x: tuple) -> None:
    # Non-finite entries go first: a NaN determinant passes the comparison
    # below.  The determinant of a stored matrix is only representable to
    # about eps * ||X||^2, so the tolerance scales with the squared matrix
    # size; for moderate entries this is the plain absolute check.
    a, b, c, d = x
    if not all(map(math.isfinite, x)):
        raise NotUnimodularError(f"entries {[[a, b], [c, d]]} are not all finite")
    det = a * d - b * c
    scale = max(1.0, a * a + b * b + c * c + d * d)
    if abs(det - 1.0) > DET_TOL * scale:
        raise NotUnimodularError(f"det = {det!r} is not 1 within {DET_TOL * scale}")


def _project(x: tuple) -> tuple[float, float]:
    _check_unimodular(x)
    a, b, c, d = x
    return 0.5 * (a + d), 0.5 * (b - c)


def project(x: np.ndarray) -> QuotientPoint:
    """Class coordinates ((a+d)/2, (b-c)/2) of an SL(2) element.

    Conjugation-invariant: project(K X K^T) == project(X) for K in SO(2).
    """
    return QuotientPoint(*_project(_entries(x)))


def _recover_rotation(x1: tuple, x2: tuple, tol: float) -> tuple[tuple, bool]:
    (px1, py1), (px2, py2) = _project(x1), _project(x2)
    scale = max(1.0, math.hypot(px1, py1))
    if math.hypot(px1 - px2, py1 - py2) > tol * scale:
        raise ClassMismatchError(f"projections {QuotientPoint(px1, py1)} and "
                                 f"{QuotientPoint(px2, py2)} differ")
    # Writing X = [[x, y], [-y, x]] + [[m, k], [k, -m]], the rotation acts
    # on the symmetric part (m, k).
    m1, k1 = 0.5 * (x1[0] - x1[3]), 0.5 * (x1[1] + x1[2])
    m2, k2 = 0.5 * (x2[0] - x2[3]), 0.5 * (x2[1] + x2[2])
    if m1 * m1 + k1 * k1 <= SINGULAR_BAND:
        return (1.0, 0.0, 0.0, 1.0), False
    theta = 0.5 * math.atan2(k1 * m2 - m1 * k2, m1 * m2 + k1 * k2)
    c, s = math.cos(theta), math.sin(theta)
    return (c, s, -s, c), True


def recover_rotation(x1: np.ndarray, x2: np.ndarray,
                     tol: float = MATCH_TOL) -> RecoveredRotation:
    """K in SO(2) with K X1 K^T = X2, for two matrices of one class.

    The rotation acts on the symmetric parts (m, k) by the double angle, so
    theta is half the atan2 angle aligning (m1, k1) with (m2, k2); of the
    two valid angles theta and theta + pi the one in (-pi/2, pi/2] is
    returned.  On the singular stratum every K works: the identity is
    returned with unique=False.
    """
    k, unique = _recover_rotation(_entries(x1), _entries(x2), tol)
    return RecoveredRotation(_matrix(k), unique)


def pushforward_frame(x: np.ndarray) -> tuple[TangentVec2, TangentVec2]:
    """Projections of the horizontal frame fields at X.

    Returns (pi_* f1, pi_* f2) in d/dx, d/dy components; both degenerate to
    zero exactly on the singular circle.
    """
    a, b = float(x[0, 0]), float(x[0, 1])
    c, d = float(x[1, 0]), float(x[1, 1])
    f1 = TangentVec2(0.25 * (b + c), 0.25 * (d - a))
    f2 = TangentVec2(0.25 * (a - d), 0.25 * (b + c))
    return f1, f2


def _regular_weight(p: QuotientPoint) -> float:
    denom = p.radius_sq - 1.0
    if denom <= SINGULAR_BAND:
        raise SingularPointError(f"{p} is not strictly outside the unit circle")
    return denom


def quotient_metric(p: QuotientPoint) -> np.ndarray:
    """Metric matrix diag(4/(x^2+y^2-1), 4/(x^2+y^2-1)) at a regular point."""
    w = 4.0 / _regular_weight(p)
    return np.array([[w, 0.0], [0.0, w]])


def christoffel(p: QuotientPoint) -> np.ndarray:
    """Christoffel symbols Gamma[i, j, k] of the quotient metric.

    Index i is the upper index; coordinates are ordered (x, y).
    """
    denom = _regular_weight(p)
    u = p.x / denom
    v = p.y / denom
    gamma = np.empty((2, 2, 2))
    gamma[0, 0, 0] = -u
    gamma[0, 0, 1] = gamma[0, 1, 0] = -v
    gamma[0, 1, 1] = u
    gamma[1, 0, 0] = v
    gamma[1, 0, 1] = gamma[1, 1, 0] = -u
    gamma[1, 1, 1] = -v
    return gamma


def geodesic_ode_rhs(p: QuotientPoint, v: TangentVec2) -> tuple[TangentVec2, TangentVec2]:
    """First-order form of the geodesic equation: returns (velocity, acceleration)."""
    gamma = christoffel(p)
    vel = np.array([v.dx, v.dy])
    acc = -np.einsum("ijk,j,k->i", gamma, vel, vel)
    return TangentVec2(v.dx, v.dy), TangentVec2(float(acc[0]), float(acc[1]))


def ode_residual(c: float, s_grid) -> float:
    """Largest geodesic-equation residual of the closed-form family on a grid.

    For each s the analytic position/velocity/acceleration of the curve is
    compared against the acceleration demanded by the geodesic equation at
    that state; both routes are independent, so this checks the closed form
    genuinely solves the equation.  Grid points must be strictly outside the
    unit circle.
    """
    worst = 0.0
    for s in s_grid:
        jet: PlanarJet = geodesics.planar_jet(c, float(s))
        p = QuotientPoint(jet.x, jet.y)
        _, acc = geodesic_ode_rhs(p, TangentVec2(jet.vx, jet.vy))
        res = math.hypot(jet.ax - acc.dx, jet.ay - acc.dy)
        if res > worst:
            worst = res
    return worst
