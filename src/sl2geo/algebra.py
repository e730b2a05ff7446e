"""Small-matrix algebra for sl(2) and SL(2).

The basis A0, A1, A2 spans sl(2) with brackets

    [A0, A1] = -A2,   [A0, A2] = A1,   [A1, A2] = A0,

so span{A0} / span{A1, A2} is a Cartan-type splitting; the horizontal
distribution of the sub-Riemannian structure is span{A1, A2}.  Every
traceless 2x2 matrix M satisfies M^2 = -det(M) I, which gives the
closed-form exponential used everywhere in the package.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import coshc, sinhc

_A0 = np.array([[0.0, -0.5], [0.5, 0.0]])
_A1 = np.array([[0.0, 0.5], [0.5, 0.0]])
_A2 = np.array([[0.5, 0.0], [0.0, -0.5]])
for _m in (_A0, _A1, _A2):
    _m.setflags(write=False)

# Matrices of ad_{A0}, ad_{A1}, ad_{A2} in the basis {A0, A1, A2}; column j
# holds the coordinates of [A_i, basis_j].
_AD0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
_AD1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
_AD2 = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
for _m in (_AD0, _AD1, _AD2):
    _m.setflags(write=False)


def basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh copies of the orthonormal basis (A0, A1, A2) of sl(2)."""
    return _A0.copy(), _A1.copy(), _A2.copy()


def adjugate(x: np.ndarray) -> np.ndarray:
    """Adjugate [[d, -b], [-c, a]]: the inverse of an SL(2) element."""
    return np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator AB - BA."""
    return a @ b - b @ a


def metric_g(b: np.ndarray, c: np.ndarray) -> float:
    """Right-invariant metric g(B, C) = 2 Tr(B C^T).

    The basis A0, A1, A2 is orthonormal for g.
    """
    return 2.0 * float(np.sum(b * c))


def exp2(m: np.ndarray) -> np.ndarray:
    """Exponential of a traceless 2x2 matrix.

    Uses M^2 = -det(M) I: the result is coshc(-det) I + sinhc(-det) M, which
    covers the rotation, boost and parabolic cases in one expression.
    """
    a, b = float(m[0, 0]), float(m[0, 1])
    c, d = float(m[1, 0]), float(m[1, 1])
    z = -(a * d - b * c)
    cc = coshc(z)
    ss = sinhc(z)
    return np.array([[cc + ss * a, ss * b], [ss * c, cc + ss * d]])


def rotation(angle: float) -> np.ndarray:
    """Counterclockwise rotation by `angle`; equals exp2(2*angle*A0)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def to_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates (v0, v1, v2) of a traceless matrix in the A-basis."""
    return np.array([
        float(m[1, 0] - m[0, 1]),
        float(m[1, 0] + m[0, 1]),
        float(m[0, 0] - m[1, 1]),
    ])


def from_coords(v) -> np.ndarray:
    """Matrix v0 A0 + v1 A1 + v2 A2 from coordinates."""
    v0, v1, v2 = float(v[0]), float(v[1]), float(v[2])
    return np.array([
        [0.5 * v2, 0.5 * (v1 - v0)],
        [0.5 * (v0 + v1), -0.5 * v2],
    ])


def adjoint_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of ad_M = [M, .] in the basis {A0, A1, A2}.

    Linear in M; satisfies adjoint_matrix([A, B]) =
    [adjoint_matrix(A), adjoint_matrix(B)] (the representation property).
    """
    v = to_coords(m)
    return v[0] * _AD0 + v[1] * _AD1 + v[2] * _AD2
