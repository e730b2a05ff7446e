"""Exception types raised by the library."""


class GeometryError(ValueError):
    """Base class for all contract violations in this package."""


class NotUnimodularError(GeometryError):
    """Matrix claimed to be in SL(2) has determinant away from 1."""


class ClassMismatchError(GeometryError):
    """Two matrices do not share a conjugacy class under SO(2)."""


class SingularPointError(GeometryError):
    """Operation needs a point strictly outside the unit circle."""


class OutOfRegimeError(GeometryError):
    """Parameter c outside the regime required by the operation."""


class UnboundedError(GeometryError):
    """The requested quantity diverges (c = 0 never crosses the axis)."""


class NonFiniteError(GeometryError):
    """Input coordinate is NaN or infinite."""


class NoRootError(GeometryError):
    """Root bracketing failed; indicates an internal inconsistency."""


class UnreachableError(GeometryError):
    """Target lies strictly inside the unit disc: not in the quotient."""


class StartPointError(GeometryError):
    """Target coincides with the start point (1, 0); distance is zero."""


class BadGridError(GeometryError):
    """Sampling grid parameters are invalid."""


class NotInGroupError(GeometryError):
    """3x3 matrix does not preserve the (1,2) Lorentz form with det +1."""


class NotUnitDeterminantError(GeometryError):
    """2x2 matrix determinant is not +-1."""


class SingularMatrixError(GeometryError):
    """Matrix is not invertible."""


class DependentFrameError(GeometryError):
    """Frame vectors are linearly dependent."""
