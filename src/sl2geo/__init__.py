"""Length-minimizing sub-Riemannian geodesics on SL(2, R).

The horizontal distribution is spanned by the symmetric traceless basis
elements A1, A2 of sl(2); conjugation by SO(2) is an isometry fixing the
identity, and quotienting by it turns the geodesic problem into a planar
Riemannian one on the exterior of the unit disc.  This package implements
the reduction, the closed-form geodesic family, the endpoint synthesis
solver, the matching SU(2) picture, and the Lorentz-group automorphism
machinery of the underlying algebra.
"""

from .algebra import (adjoint_matrix, basis, bracket, exp2, from_coords,
                      metric_g, rotation, to_coords)
from .automorphisms import (assemble, aut_matrix_from_group, classify_structure,
                            factorize, is_lie_automorphism, is_so12,
                            lorentz_boost, lorentz_rotation, realize)
from .geodesics import (C_LANDING, C_ORTHOGONAL, direction_matrix, k1k2,
                        landing_point, landing_time, lift, lift_with_direction,
                        planar_geodesic, planar_jet, radius_sq, s_int,
                        sample_path, x_int)
from .quotient import (christoffel, geodesic_ode_rhs, ode_residual, project,
                       pushforward_frame, quotient_metric, recover_rotation)
from .su2 import (c_of_omega, landing_match_error, reachable_boundary,
                  su2_landing_point, su2_landing_time, su2_planar_geodesic)
from .synthesis import (check_fan_monotone, classify_cut_locus,
                        distance_to_class, solve, verify_solution)
from .types import (CutLocusClass, DistanceResult, Factorization, PathSample,
                    PlanarJet, QuotientPoint, RecoveredRotation, StructureKind,
                    SynthesisSolution, TangentVec2)

__version__ = "0.1.0"

__all__ = [
    "C_LANDING", "C_ORTHOGONAL",
    "adjoint_matrix", "assemble", "aut_matrix_from_group", "basis", "bracket",
    "c_of_omega", "check_fan_monotone", "christoffel", "classify_cut_locus",
    "classify_structure", "direction_matrix", "distance_to_class", "exp2",
    "factorize", "from_coords", "geodesic_ode_rhs", "is_lie_automorphism",
    "is_so12", "k1k2", "landing_match_error", "landing_point", "landing_time",
    "lift", "lift_with_direction", "lorentz_boost", "lorentz_rotation",
    "metric_g", "ode_residual", "planar_geodesic", "planar_jet", "project",
    "pushforward_frame", "quotient_metric", "radius_sq", "reachable_boundary",
    "realize", "recover_rotation", "rotation", "s_int", "sample_path",
    "solve", "su2_landing_point", "su2_landing_time", "su2_planar_geodesic",
    "to_coords", "verify_solution", "x_int",
    "CutLocusClass", "DistanceResult", "Factorization", "PathSample",
    "PlanarJet", "QuotientPoint", "RecoveredRotation", "StructureKind",
    "SynthesisSolution", "TangentVec2",
]
