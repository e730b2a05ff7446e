"""Shared value types.

Matrices are plain numpy arrays throughout (2x2 for group/algebra elements,
3x3 for Lorentz matrices); the classes here are small records for everything
that is not a matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tolerances import SINGULAR_BAND


class QuotientPoint(NamedTuple):
    """Planar coordinates (x, y) of an SO(2)-conjugacy class in SL(2).

    Points of the quotient satisfy x^2 + y^2 >= 1; the unit circle is the
    singular stratum (classes fixed by the whole rotation group).
    """

    x: float
    y: float

    @property
    def radius_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    @property
    def is_singular(self) -> bool:
        return abs(self.radius_sq - 1.0) <= SINGULAR_BAND

    @property
    def stratum(self) -> str:
        return "singular" if self.is_singular else "regular"


class TangentVec2(NamedTuple):
    """Tangent vector components in the coordinate frame d/dx, d/dy."""

    dx: float
    dy: float


class PathSample(NamedTuple):
    """One sample of a planar geodesic at half-time parameter s = t/2."""

    s: float
    x: float
    y: float


class PlanarJet(NamedTuple):
    """Position, velocity and acceleration of a planar geodesic.

    Derivatives are taken with respect to the arclength time t (not s);
    the curve is parametrized by arclength in the quotient metric.
    """

    x: float
    y: float
    vx: float
    vy: float
    ax: float
    ay: float


class RecoveredRotation(NamedTuple):
    """Result of aligning two matrices of one conjugacy class.

    `unique` is False on the singular stratum, where every rotation works
    and the identity is returned by convention.
    """

    matrix: np.ndarray
    unique: bool


class DistanceResult(NamedTuple):
    """Minimizing parameters for one planar target.

    t_f is the sub-Riemannian distance (t_f = 2 s); `on_cut_locus` flags
    targets reached by more than one minimizing geodesic.
    """

    t_f: float
    c: float
    s: float
    on_cut_locus: bool


class CutLocusClass(enum.Enum):
    """Where a group element sits relative to the loss-of-optimality locus."""

    REGULAR = "Regular"
    SINGULAR_CIRCLE = "SingularCircle"
    NEGATIVE_AXIS_SEGMENT = "NegativeAxisSegment"
    START_POINT = "StartPoint"


class StructureKind(enum.Enum):
    """Sign class of the Lorentz inner product restricted to a 2-frame."""

    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    DEGENERATE = "Degenerate"


@dataclass
class SynthesisSolution:
    """Full answer to the endpoint problem.

    The lifted geodesic t -> exp((c A0 + P) t) exp(-c A0 t) Xi runs from Xi
    to Xf in time t_f; residual is the Frobenius endpoint error against the
    reduced target Xf Xi^{-1}.
    """

    c: float
    t_f: float
    P: np.ndarray
    K: np.ndarray
    residual: float
    on_cut_locus: bool = False


class Factorization(NamedTuple):
    """Generator decomposition O(theta1) I^branch H(z) O(theta2)."""

    theta1: float
    branch: int
    z: float
    theta2: float
