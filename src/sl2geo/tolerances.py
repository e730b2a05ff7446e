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

SERIES_CUTOFF = 1e-8
"""Switch to Taylor series for the trig/hyperbolic kernels below this."""

ROOT_TOL = 1e-12
"""Bisection interval width for scalar root finding."""

SYNTH_TOL = 1e-6
"""Endpoint residual tolerance for the synthesis solver."""

MATCH_TOL = 1e-6
"""Tolerance for deciding two group elements share a conjugacy class."""

LORENTZ_TOL = 1e-9
"""Lorentz-group membership check before factorizing a 3x3 matrix."""
