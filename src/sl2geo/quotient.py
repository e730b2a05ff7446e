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
from ._kernels import _finite, _project, _recover_rotation
from .algebra import _entries, _matrix
from .errors import NonFiniteError, SingularPointError
from .tolerances import MATCH_TOL, SINGULAR_BAND
from .types import PlanarJet, QuotientPoint, RecoveredRotation, TangentVec2


def project(x: np.ndarray) -> QuotientPoint:
    """Class coordinates ((a+d)/2, (b-c)/2) of an SL(2) element.

    Conjugation-invariant: project(K X K^T) == project(X) for K in SO(2).
    """
    return QuotientPoint(*_project(_entries(x)))


def recover_rotation(x1: np.ndarray, x2: np.ndarray,
                     tol: float = MATCH_TOL) -> RecoveredRotation:
    """K in SO(2) with K X1 K^T = X2, for two matrices of one class: their
    projections within tol max(1, r) of each other, for a finite tol.

    The rotation acts on the symmetric parts (m, k) by the double angle, so
    theta is half the atan2 angle aligning (m1, k1) with (m2, k2); of the
    two valid angles the one in (-pi/2, pi/2] is returned.  unique=False
    flags the singular band, m1^2 + k1^2 <= SINGULAR_BAND, where the angle
    is still computed; only once |(m1, k1)| <= ROTATION_FLOOR, at rounding
    level (exact rotations, landing lifts), is the identity returned.
    """
    k, unique = _recover_rotation(_entries(x1), _entries(x2), tol)
    return RecoveredRotation(_matrix(k), unique)


def pushforward_frame(x: np.ndarray) -> tuple[TangentVec2, TangentVec2]:
    """Projections of the horizontal frame fields at X.

    Returns (pi_* f1, pi_* f2) in d/dx, d/dy components; both degenerate to
    zero exactly on the singular circle.
    """
    a, b, c, d = x = _entries(x)
    for entry in x:
        _finite("entry of X", entry)
    f1 = TangentVec2(0.25 * (b + c), 0.25 * (d - a))
    f2 = TangentVec2(0.25 * (a - d), 0.25 * (b + c))
    if not all(map(math.isfinite, f1 + f2)):
        raise NonFiniteError(f"entries {[[a, b], [c, d]]} overflow the frame")
    return f1, f2


def _regular_weight(p: QuotientPoint) -> float:
    _finite("point coordinate x", p.x)
    _finite("point coordinate y", p.y)
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
    _finite("velocity component dx", v.dx)
    _finite("velocity component dy", v.dy)
    vel = np.array([v.dx, v.dy])
    acc = -np.einsum("ijk,j,k->i", gamma, vel, vel)
    if not all(map(math.isfinite, acc)):
        raise NonFiniteError(f"velocity {tuple(v)} at {tuple(p)} overflows the acceleration")
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
