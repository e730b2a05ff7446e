"""Small-matrix algebra for sl(2) and SL(2).

The basis A0, A1, A2 spans sl(2) with brackets

    [A0, A1] = -A2,   [A0, A2] = A1,   [A1, A2] = A0,

so span{A0} / span{A1, A2} is a Cartan-type splitting; the horizontal
distribution of the sub-Riemannian structure is span{A1, A2}.  Every
traceless 2x2 matrix M satisfies M^2 = -det(M) I, which gives the
closed-form exponential used everywhere in the package.

The group operations on the endpoint solver's path run on float cores in
_kernels, on row-major 4-tuples (a, b, c, d); _entries and _matrix below are
the one boundary between those tuples and numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _adj, _exp2, _finite
from .errors import NonFiniteError

# Matrices of ad_{A0}, ad_{A1}, ad_{A2} in the basis {A0, A1, A2}; column j
# holds the coordinates of [A_i, basis_j].
_AD0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
_AD1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
_AD2 = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
for _m in (_AD0, _AD1, _AD2):
    _m.setflags(write=False)


def basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fresh copy of the orthonormal basis (A0, A1, A2) of sl(2)."""
    return (np.array([[0.0, -0.5], [0.5, 0.0]]),
            np.array([[0.0, 0.5], [0.5, 0.0]]),
            np.array([[0.5, 0.0], [0.0, -0.5]]))


def _entries(x: np.ndarray) -> tuple[float, float, float, float]:
    """Row-major entries (a, b, c, d) of a 2x2 array, as floats."""
    return tuple(x.astype(float, copy=False).ravel().tolist())


def _matrix(x: tuple[float, float, float, float]) -> np.ndarray:
    """2x2 array from row-major entries (a, b, c, d)."""
    return np.array(x, dtype=float).reshape(2, 2)


def adjugate(x: np.ndarray) -> np.ndarray:
    """Adjugate [[d, -b], [-c, a]]: the inverse of an SL(2) element."""
    return _matrix(_adj(_entries(x)))


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
    a, b, c, d = x = _entries(m)
    _finite("determinant of M", a * d - b * c)
    if not all(map(math.isfinite, e := _exp2(x))):
        raise NonFiniteError(f"exp2 of {[[a, b], [c, d]]} overflows")
    return _matrix(e)


def rotation(angle: float) -> np.ndarray:
    """Counterclockwise rotation by `angle`; equals exp2(2*angle*A0)."""
    _finite("angle", angle)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def to_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates (v0, v1, v2) of a traceless matrix in the A-basis."""
    a, b, c, d = x = _entries(m)
    for entry in x:
        _finite("entry of M", entry)
    v = (c - b, c + b, a - d)
    if not all(map(math.isfinite, v)):
        raise NonFiniteError(f"entries {[[a, b], [c, d]]} overflow the coordinates")
    return np.array(v)


def from_coords(v) -> np.ndarray:
    """Matrix v0 A0 + v1 A1 + v2 A2 from coordinates."""
    v0, v1, v2 = v = float(v[0]), float(v[1]), float(v[2])
    for i, entry in enumerate(v):
        _finite(f"coordinate v{i}", entry)
    m = (0.5 * v2, 0.5 * (v1 - v0), 0.5 * (v0 + v1), -0.5 * v2)
    if not all(map(math.isfinite, m)):
        raise NonFiniteError(f"coordinates {list(v)} overflow the matrix")
    return _matrix(m)


def adjoint_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of ad_M = [M, .] in the basis {A0, A1, A2}.

    Linear in M; satisfies adjoint_matrix([A, B]) =
    [adjoint_matrix(A), adjoint_matrix(B)] (the representation property).
    """
    v = to_coords(m)
    return v[0] * _AD0 + v[1] * _AD1 + v[2] * _AD2
