"""Automorphisms of sl(2) as the determinant-one Lorentz group.

In coordinates over the basis {A0, A1, A2}, a linear map is a Lie-algebra
automorphism exactly when it preserves the quadratic form diag(-1, 1, 1)
with determinant +1.  Every such matrix factors through three generator
families

    O(theta)  block rotation in the (A1, A2) plane,
    H(z)      boost mixing A0 and A2,
    I^0,1,2   identity, diag(-1,-1,1), diag(-1,1,-1),

and each factor is realized on the group side by conjugation with an
explicit K in SL(2) or its determinant -1 coset.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._kernels import _finite
from .algebra import adjoint_matrix, adjugate, basis, rotation, to_coords
from .errors import (DependentFrameError, NonFiniteError, NotInGroupError,
                     NotUnitDeterminantError, SingularMatrixError)
from .tolerances import ALG_TOL, DET_TOL, INVERTIBLE_TOL, LORENTZ_TOL
from .types import Factorization, StructureKind

I12 = np.diag([-1.0, 1.0, 1.0])
I12.setflags(write=False)

_I_BRANCH = (np.eye(3), np.diag([-1.0, -1.0, 1.0]), np.diag([-1.0, 1.0, -1.0]))

_ADJ_BASIS = tuple(adjoint_matrix(a) for a in basis())


def lorentz_rotation(theta: float) -> np.ndarray:
    """Generator O(theta): rotation of the (A1, A2) plane."""
    _finite("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _cosh_sinh(z: float) -> tuple[float, float]:
    try:
        return math.cosh(z), math.sinh(z)
    except OverflowError:  # |z| above ~710.5
        raise NonFiniteError(f"cosh({z}) overflows") from None


def lorentz_boost(z: float) -> np.ndarray:
    """Generator H(z): hyperbolic rotation of the (A0, A2) plane."""
    _finite("z", z)
    ch, sh = _cosh_sinh(z)
    return np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])


def is_so12(m: np.ndarray, tol: float = ALG_TOL) -> bool:
    """True iff m preserves the (1,2) form and has determinant +1."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    if not np.max(np.abs(m.T @ I12 @ m - I12)) <= tol:  # NaN fails too
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


def aut_matrix_from_group(k: np.ndarray) -> np.ndarray:
    """Matrix of the automorphism A -> K A K^{-1} in the A-basis.

    Requires finite entries and det(K) = +-1; the image always preserves
    the Lorentz form with determinant +1, and K -> matrix is a homomorphism.
    """
    k = np.asarray(k, dtype=float)
    for entry in k.flat:
        _finite("entry of K", float(entry))
    det = float(k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0])
    if abs(abs(det) - 1.0) > DET_TOL:
        raise NotUnitDeterminantError(f"det(K) = {det!r} is not +-1")
    k_inv = adjugate(k) / det
    cols = [to_coords(k @ a @ k_inv) for a in basis()]
    return np.column_stack(cols)


def is_lie_automorphism(m: np.ndarray) -> bool:
    """True iff m intertwines the adjoint action: m ad_A = ad_{m A} m.

    Checked on the basis; by the structure of sl(2) this is equivalent to
    membership in the determinant-one Lorentz group.  A non-finite m is
    not one, as for is_so12.
    """
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.det(m)) < INVERTIBLE_TOL:
        raise SingularMatrixError("automorphism candidate must be invertible")
    for j, ad_j in enumerate(_ADJ_BASIS):
        image_ad = sum(m[i, j] * _ADJ_BASIS[i] for i in range(3))
        if not np.max(np.abs(m @ ad_j - image_ad @ m)) <= ALG_TOL:  # NaN fails too
            return False
    return True


def _wrap_angle(a: float) -> float:
    # Reduce to (-pi, pi].
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def factorize(m: np.ndarray) -> Factorization:
    """Decompose a determinant-one Lorentz matrix as O(t1) I^b H(z) O(t2).

    Constructive: one rotation clears the (2,1) entry, a second clears
    (1,2), and the remaining matrix is a signed boost classified into
    I^branch H(z), with any leftover O(pi) folded into theta1 or theta2.
    Angles are reduced to (-pi, pi].
    """
    m = np.asarray(m, dtype=float)
    if not is_so12(m, tol=LORENTZ_TOL):
        raise NotInGroupError("matrix is not in the determinant-one Lorentz group")
    th1_hat = math.atan2(-m[1, 0], m[2, 0]) if (m[1, 0] or m[2, 0]) else 0.0
    b = lorentz_rotation(th1_hat) @ m
    th2_hat = math.atan2(b[0, 1], b[0, 2]) if (b[0, 1] or b[0, 2]) else 0.0
    h = b @ lorentz_rotation(th2_hat)

    theta1 = -th1_hat
    theta2 = -th2_hat
    if abs(h[2, 0]) <= abs(h[2, 1]):
        # Rotation type: h31 = h13 = 0, h11 = +-1 and the lower-right block
        # is a rotation, possibly times I^1.
        z = 0.0
        if h[0, 0] > 0.0:
            branch = 0
            theta2 += math.atan2(h[1, 2], h[1, 1])
        else:
            branch = 1
            theta2 += math.atan2(-h[1, 2], -h[1, 1])
    else:
        # Boost type: h32 = h23 = 0, h22 = +-1, |h11| = cosh(z).
        z0 = math.asinh(h[0, 2])
        if h[0, 0] > 0.0:
            branch = 0
            z = z0
            if h[1, 1] < 0.0:
                theta1 += math.pi  # fold the O(pi) of O(pi) H(z) into theta1
        else:
            z = -z0
            branch = 2 if h[1, 1] > 0.0 else 1
    return Factorization(_wrap_angle(theta1), branch, z, _wrap_angle(theta2))


def _check_factors(f: Factorization) -> None:
    # The domain of assemble and realize: finite parameters, a branch in {0, 1, 2}.
    for name in ("theta1", "z", "theta2"):
        _finite(name, getattr(f, name))
    if not isinstance(f.branch, numbers.Integral) or f.branch not in (0, 1, 2):
        raise NotInGroupError(f"branch {f.branch!r} is not 0, 1 or 2")


def assemble(f: Factorization) -> np.ndarray:
    """Product O(theta1) I^branch H(z) O(theta2) of a factorization."""
    _check_factors(f)
    return (lorentz_rotation(f.theta1) @ _I_BRANCH[f.branch]
            @ lorentz_boost(f.z) @ lorentz_rotation(f.theta2))


def realize(f: Factorization) -> np.ndarray:
    """Group element K with conjugation action equal to assemble(f).

    Generators: O(theta) comes from the rotation by theta/2 (= exp(theta A0)),
    H(z) from the symmetric boost with parameter z/2, I^1 from diag(1, -1)
    and I^2 from the swap [[0, 1], [1, 0]]; the latter two have determinant
    -1, realizing the outer coset.
    """
    _check_factors(f)
    k = rotation(0.5 * f.theta1)
    if f.branch == 1:
        k = k @ np.array([[1.0, 0.0], [0.0, -1.0]])
    elif f.branch == 2:
        k = k @ np.array([[0.0, 1.0], [1.0, 0.0]])
    ch, sh = _cosh_sinh(0.5 * f.z)
    k = k @ np.array([[ch, sh], [sh, ch]])
    return k @ rotation(0.5 * f.theta2)


def classify_structure(b1, b2) -> StructureKind:
    """Sign class of the Lorentz inner product on the span of two coordinate
    vectors.

    Positive definite planes are elliptic, indefinite ones hyperbolic; a
    degenerate restriction gets its own tag.  The elliptic planes form the
    automorphism orbit of the standard horizontal plane, but a frame is an
    automorphic image of the standard frame, scaled by lambda, only when its
    Gram matrix under diag(-1, 1, 1) is lambda^2 I.  The metric scale factor
    is irrelevant here: rescaling both vectors changes lengths, never the
    sign class.  A non-finite entry raises NonFiniteError.
    """
    v1 = np.asarray(b1, dtype=float)
    v2 = np.asarray(b2, dtype=float)
    for name, v in (("b1", v1), ("b2", v2)):
        for entry in v.flat:
            _finite(f"entry of {name}", float(entry))
    scale = np.linalg.norm(v1) * np.linalg.norm(v2)
    if scale == 0.0 or np.linalg.norm(np.cross(v1, v2)) <= ALG_TOL * scale:
        raise DependentFrameError("frame vectors are linearly dependent")
    g11 = float(v1 @ I12 @ v1)
    g12 = float(v1 @ I12 @ v2)
    g22 = float(v2 @ I12 @ v2)
    det = g11 * g22 - g12 * g12
    if abs(det) <= ALG_TOL * max(scale * scale, 1.0):
        return StructureKind.DEGENERATE
    if det < 0.0:
        return StructureKind.HYPERBOLIC
    return StructureKind.ELLIPTIC
