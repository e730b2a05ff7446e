"""Numerical tolerances used across the package.

All values are module constants so that tests and the CLI can reference a
single source of truth.  The defaults target double precision: the algebraic
tolerances sit at roughly 1e4 machine epsilons, while the synthesis tolerance
is looser because an endpoint solve compounds matrix exponentials, root
finding and a rotation recovery.
"""

DET_TOL = 1e-12
"""Unimodularity check: |det(X) - 1| must stay below this."""

ALG_TOL = 1e-12
"""Generic algebraic identity tolerance (tracelessness, orthogonality...)."""

SINGULAR_BAND = 1e-9
"""Half-width of the band around the unit circle treated as singular."""

ROTATION_FLOOR = 1e-14
"""Symmetric-part size |(m, k)| at rounding level: at or below it no rotation
is recovered, and solve takes the closed-form landing."""

SERIES_CUTOFF = 1e-8
"""Switch to Taylor series for the trig/hyperbolic kernels below this."""

ROOT_TOL = 1e-12
"""Bracket width at which bisection stops and takes its final secant step."""

REGIME_TOL = 1e-12
"""Relative slack on |c| >= 2/sqrt(3): 2/sqrt(3) and sqrt(4/3) round to
different floats, and the landing boundary must be accepted either way."""

INVERTIBLE_TOL = 1e-12
"""Smallest |det| accepted for an automorphism candidate."""

SYNTH_TOL = 1e-6
"""Endpoint residual tolerance for the synthesis solver."""

MATCH_TOL = 1e-6
"""Tolerance for deciding two group elements share a conjugacy class."""

LORENTZ_TOL = 1e-9
"""Lorentz-group membership check before factorizing a 3x3 matrix."""

HUGE_PARAM = 1e150
"""Above this |c| or |omega|, c^2 - 1 and 1 + omega^2 round to the bare
square, whose root is the parameter's magnitude exactly.  The landing and
bridge formulas take that limit there instead of squaring, which overflows
from |c| ~ 1.34e154; at and below it they keep their exact operations."""
