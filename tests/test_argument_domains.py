"""The argument domains of the public geodesic, quotient, algebra and
automorphism functions.

A NaN or infinite argument raises NonFiniteError naming that argument, and a
finite one whose geodesic overflows raises NonFiniteError naming the pair;
neither may surface as a bare ValueError from math.  A finite matrix whose
determinant, conjugates or products overflow is named by its own check, and
a frame whose norms would overflow is classified, without numpy's
RuntimeWarning.
"""

import math
import re
import warnings

import numpy as np
import pytest

from sl2geo import (Factorization, QuotientPoint, StructureKind, TangentVec2,
                    assemble, aut_matrix_from_group, c_of_omega,
                    check_fan_monotone, christoffel, classify_structure,
                    distance_to_class, exp2, factorize, from_coords,
                    geodesic_ode_rhs, is_lie_automorphism, is_so12,
                    landing_match_error, landing_point, landing_time, lift,
                    lift_with_direction, lorentz_boost, lorentz_rotation,
                    planar_geodesic, planar_jet, project, pushforward_frame,
                    quotient_metric, radius_sq, realize, recover_rotation,
                    rotation, s_int, solve, su2_landing_point,
                    su2_landing_time, su2_planar_geodesic, to_coords, x_int)
from sl2geo.cli import main
from sl2geo.errors import (NonFiniteError, NotInGroupError, NotUnimodularError,
                           NotUnitDeterminantError)
from sl2geo.geodesics import planar_curve
from sl2geo.su2 import su2_curve

# (label, call with the value in the checked slot, the name in the message)
ENTRY_POINTS = [
    ("s_int", lambda v: s_int(v), "geodesic parameter c"),
    ("x_int", lambda v: x_int(v), "geodesic parameter c"),
    ("landing_time", lambda v: landing_time(v), "geodesic parameter c"),
    ("landing_point", lambda v: landing_point(v), "geodesic parameter c"),
    ("planar_curve", lambda v: planar_curve(v, 1.0, 5), "geodesic parameter c"),
    ("planar_geodesic.c", lambda v: planar_geodesic(v, 1.0), "geodesic parameter c"),
    ("planar_geodesic.s", lambda v: planar_geodesic(0.5, v), "s"),
    ("planar_jet.c", lambda v: planar_jet(v, 1.0), "geodesic parameter c"),
    ("planar_jet.s", lambda v: planar_jet(0.5, v), "s"),
    ("radius_sq.c", lambda v: radius_sq(v, 1.0), "geodesic parameter c"),
    ("radius_sq.s", lambda v: radius_sq(0.5, v), "s"),
    ("lift.phi", lambda v: lift(0.5, v, 1.0), "phi"),
    ("lift_with_direction.P",
     lambda v: lift_with_direction(0.5, np.array([[v, 0.0], [0.0, 0.0]]), 1.0), "entry of P"),
    ("su2_planar_geodesic.omega", lambda v: su2_planar_geodesic(v, 1.0), "omega"),
    ("su2_planar_geodesic.s", lambda v: su2_planar_geodesic(0.5, v), "s"),
    ("su2_curve", lambda v: su2_curve(v, 1.0, 5), "omega"),
    ("su2_landing_time", lambda v: su2_landing_time(v), "omega"),
    ("su2_landing_point", lambda v: su2_landing_point(v), "omega"),
    ("c_of_omega", lambda v: c_of_omega(v), "omega"),
    ("landing_match_error", lambda v: landing_match_error(v), "omega"),
    ("distance_to_class.x", lambda v: distance_to_class(QuotientPoint(v, 2.0)),
     "target coordinate x"),
    ("distance_to_class.y", lambda v: distance_to_class(QuotientPoint(2.0, v)),
     "target coordinate y"),
    ("check_fan_monotone", lambda v: check_fan_monotone(v), "fan radius r"),
    ("classify_structure.b1",
     lambda v: classify_structure([v, 0.0, 0.0], [0.0, 1.0, 0.0]), "entry of b1"),
    ("classify_structure.b2",
     lambda v: classify_structure([1.0, 0.0, 0.0], [0.0, 1.0, v]), "entry of b2"),
    ("aut_matrix_from_group",
     lambda v: aut_matrix_from_group([[v, 0.0], [0.0, 1.0]]), "entry of K"),
    ("recover_rotation.tol", lambda v: recover_rotation(np.eye(2), np.eye(2), v), "tol"),
    ("rotation", lambda v: rotation(v), "angle"),
    ("lorentz_rotation", lambda v: lorentz_rotation(v), "theta"),
    ("lorentz_boost", lambda v: lorentz_boost(v), "z"),
    ("assemble.theta1", lambda v: assemble(Factorization(v, 0, 0.0, 0.0)), "theta1"),
    ("assemble.z", lambda v: assemble(Factorization(0.0, 1, v, 0.0)), "z"),
    ("assemble.theta2", lambda v: assemble(Factorization(0.0, 2, 0.0, v)), "theta2"),
    ("realize.theta1", lambda v: realize(Factorization(v, 0, 0.0, 0.0)), "theta1"),
    ("realize.z", lambda v: realize(Factorization(0.0, 1, v, 0.0)), "z"),
    ("realize.theta2", lambda v: realize(Factorization(0.0, 2, 0.0, v)), "theta2"),
    ("quotient_metric.x", lambda v: quotient_metric(QuotientPoint(v, 2.0)),
     "point coordinate x"),
    ("quotient_metric.y", lambda v: quotient_metric(QuotientPoint(2.0, v)),
     "point coordinate y"),
    ("christoffel", lambda v: christoffel(QuotientPoint(v, 2.0)), "point coordinate x"),
    ("geodesic_ode_rhs",
     lambda v: geodesic_ode_rhs(QuotientPoint(2.0, v), TangentVec2(1.0, 0.0)),
     "point coordinate y"),
    ("geodesic_ode_rhs.dx",
     lambda v: geodesic_ode_rhs(QuotientPoint(2.0, 0.0), TangentVec2(v, 0.0)),
     "velocity component dx"),
    ("geodesic_ode_rhs.dy",
     lambda v: geodesic_ode_rhs(QuotientPoint(2.0, 0.0), TangentVec2(0.0, v)),
     "velocity component dy"),
    ("pushforward_frame",
     lambda v: pushforward_frame(np.array([[v, 0.0], [0.0, 1.0]])), "entry of X"),
    ("from_coords.v0", lambda v: from_coords([v, 0.0, 0.0]), "coordinate v0"),
    ("from_coords.v2", lambda v: from_coords([0.0, 0.0, v]), "coordinate v2"),
    ("to_coords", lambda v: to_coords(np.array([[0.0, v], [0.0, 0.0]])), "entry of M"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_non_finite_argument_is_named(call, name, value):
    with pytest.raises(NonFiniteError) as exc:
        call(value)
    assert str(exc.value) == f"{name} = {value} is not finite"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_is_no_automorphism(value):
    # is_lie_automorphism and is_so12 are predicates: they answer False.
    m = np.eye(3)
    m[0, 1] = value
    assert not is_lie_automorphism(m)
    assert not is_so12(m)


_A2 = np.array([[0.5, 0.0], [0.0, -0.5]])


@pytest.mark.parametrize("call, c, s", [
    (lambda: planar_geodesic(1e308, 1.0), 1e308, 1.0),
    (lambda: planar_jet(1e300, 1.0), 1e300, 1.0),
    (lambda: radius_sq(1e300, 1.0), 1e300, 1.0),
    (lambda: lift(1e308, 0.0, 1.0), 1e308, 0.5),  # checked at s = t/2
    (lambda: lift_with_direction(1e308, _A2, 1.0), 1e308, 0.5),
    (lambda: planar_geodesic(1e300, 1e10), 1e300, 1e10),  # c s overflows
    # For |c| < 1, k1 = cosh(sqrt(z)) overflows although c s and z do not.
    (lambda: planar_geodesic(0.5, 1000.0), 0.5, 1000.0),
    (lambda: planar_jet(0.5, 1000.0), 0.5, 1000.0),
    (lambda: radius_sq(0.5, 1000.0), 0.5, 1000.0),
    (lambda: lift(0.5, 0.0, 3000.0), 0.5, 1500.0),
    (lambda: lift_with_direction(0.5, _A2, 3000.0), 0.5, 1500.0),
    # s_int's bracket end 1.5 pi/|c| overflows for |c| below ~2.6e-308.
    (lambda: s_int(2.6e-308), 2.6e-308, math.inf),
    (lambda: s_int(5e-324), 5e-324, math.inf),
    (lambda: x_int(5e-324), 5e-324, math.inf),
], ids=["planar_geodesic", "planar_jet", "radius_sq", "lift",
        "lift_with_direction", "planar_geodesic-angle", "planar_geodesic-cosh",
        "planar_jet-cosh", "radius_sq-cosh", "lift-cosh", "lift_with_direction-cosh",
        "s_int-bracket", "s_int-subnormal", "x_int-subnormal"])
def test_finite_overflow_is_typed(call, c, s):
    # The end-point check planar_curve makes, applied once per call.
    with pytest.raises(NonFiniteError,
                       match=re.escape(f"c = {c} with s = {s} overflows the geodesic")):
        call()


@pytest.mark.parametrize("call, message", [
    # At |c| = 1, z = 0 and c s are finite, but the lift's exponents hold
    # (c t/2)^2 in their determinants.
    (lambda: lift(1.0, 0.0, 1e155), "c = 1.0 with s = 5e+154 overflows the lift's determinant"),
    (lambda: lift(-1.0, 3.0, 4e287), "c = -1.0 with s = 2e+287 overflows the lift's determinant"),
    (lambda: lift_with_direction(-1.0, _A2, 1e200),
     "c = -1.0 with s = 5e+199 overflows the lift's determinant"),
    # A direction with huge entries: det((c A0 + P) t) overflows, (c t/2)^2 does not.
    (lambda: lift_with_direction(0.5, np.array([[0.0, -1e200], [1e200, 0.0]]), 1.0),
     "c = 0.5 with s = 0.5 overflows the lift's determinant"),
    (lambda: radius_sq(1.0, 1e300), "c = 1.0 with s = 1e+300 overflows the squared radius"),
    (lambda: radius_sq(-1.0, 2e154), "c = -1.0 with s = 2e+154 overflows the squared radius"),
    (lambda: exp2(np.array([[0.0, 1e200], [-1e200, 0.0]])),
     "determinant of M = inf is not finite"),
    (lambda: exp2(np.diag([800.0, -800.0])), "exp2 of [[800.0, 0.0], [0.0, -800.0]] overflows"),
    (lambda: exp2(np.diag([1e200, -1e200])), "determinant of M = -inf is not finite"),
    (lambda: lorentz_boost(711.0), "cosh(711.0) overflows"),
    (lambda: realize(Factorization(0.0, 0, 1500.0, 0.0)), "cosh(750.0) overflows"),
    (lambda: geodesic_ode_rhs(QuotientPoint(2.0, 0.0), TangentVec2(1e200, 1e200)),
     "velocity (1e+200, 1e+200) at (2.0, 0.0) overflows the acceleration"),
    (lambda: pushforward_frame(np.array([[0.0, 1.7e308], [1.7e308, 0.0]])),
     "entries [[0.0, 1.7e+308], [1.7e+308, 0.0]] overflow the frame"),
    (lambda: from_coords([1e308] * 3),
     "coordinates [1e+308, 1e+308, 1e+308] overflow the matrix"),
    (lambda: to_coords(np.array([[1e308, -1e308], [1e308, -1e308]])),
     "entries [[1e+308, -1e+308], [1e+308, -1e+308]] overflow the coordinates"),
], ids=["lift", "lift-negative", "lift_with_direction", "lift_with_direction-direction",
        "radius_sq", "radius_sq-negative",
        "exp2-rotation", "exp2-boost", "exp2-determinant", "lorentz_boost", "realize",
        "geodesic_ode_rhs-velocity", "pushforward_frame", "from_coords", "to_coords"])
def test_finite_overflow_names_the_quantity(call, message):
    # Finite arguments whose computation overflows past the geodesic's own
    # checks: a typed error naming what overflows, never a math error or inf.
    with pytest.raises(NonFiniteError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, error, message", [
    # Finite entries whose determinant overflows: named, not "within inf".
    (lambda: solve(np.eye(2), np.diag([1e200, 1e200])), NotUnimodularError,
     "det of [[1e+200, 0.0], [0.0, 1e+200]] overflows"),
    (lambda: project(np.diag([1e200, 1e200])), NotUnimodularError,
     "det of [[1e+200, 0.0], [0.0, 1e+200]] overflows"),
    (lambda: aut_matrix_from_group(np.diag([1e200, 1e200])), NotUnitDeterminantError,
     "det of K = [[1e+200, 0.0], [0.0, 1e+200]] overflows"),
    # Independent vectors whose norms and cross product overflow: the class
    # is scale-free, so they are classified (error None: the result).
    (lambda: classify_structure([1e200] * 3, [1e-300, 1e200, 3.0]), None,
     StructureKind.DEGENERATE),
    (lambda: classify_structure([1e200, 0.0, 0.0], [0.0, 1e-200, 0.0]), None,
     StructureKind.HYPERBOLIC),
    # A unimodular K whose conjugate K A0 K^-1 overflows.
    (lambda: aut_matrix_from_group(np.diag([1e160, 1e-160])), NonFiniteError,
     "K = [[1e+160, 0.0], [0.0, 1e-160]] overflows its conjugates K A K^-1"),
    (lambda: factorize(np.diag([1e200, 1e200, 1.0])), NotInGroupError,
     "matrix is not in the determinant-one Lorentz group"),
], ids=["solve", "project", "aut_matrix_from_group-det", "classify_structure",
        "classify_structure-gram", "aut_matrix_from_group", "factorize"])
def test_overflowing_matrix_is_named_without_warnings(call, error, message):
    """Operands whose products overflow: a matrix is named by its own check,
    a frame is classified (error None, message the class), never with a
    RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert call() is message
            return
        with pytest.raises(error) as exc:
            call()
    assert str(exc.value) == message


def test_overflowing_matrix_is_no_automorphism_without_warnings():
    m = np.diag([1e200, 1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_so12(m)
        assert not is_lie_automorphism(m)


def test_overflowing_determinant_exits_2(capsys):
    code = main(["solve", "--", "1", "0", "0", "1", "1e200", "0", "0", "1e200"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "det of [[1e+200, 0.0], [0.0, 1e+200]] overflows" in captured.err


def test_x_int_overflows_below_tiny_c():
    # x_int is -hypot(k1, k2) at s_int(c) ~ pi/c, where cosh overflows
    # once pi/c > ~710, that is for c below ~0.00443.
    with pytest.raises(NonFiniteError, match="c = 0.004 with s = .* overflows"):
        x_int(0.004)
    assert math.isfinite(x_int(0.01))


def test_finite_geodesics_near_the_limit_pass():
    # c^2 = 1e300 and c s = 1: both checked quantities are finite.
    assert all(map(math.isfinite, planar_geodesic(1e150, 1e-150)))
    assert all(map(math.isfinite, planar_jet(1e150, 1e-150)))
    assert math.isfinite(radius_sq(1e150, 1e-150))
    assert np.all(np.isfinite(lift(1e150, 0.3, 2e-150)))
    # At |c| = 1, (c t/2)^2 = 1e308 and the squared radius 1 + 1e308.
    assert np.all(np.isfinite(lift(1.0, 0.3, 2e154)))
    assert np.all(np.isfinite(lift_with_direction(-1.0, _A2, 2e154)))
    assert radius_sq(1.0, 1e154) == 1e308
    assert np.all(np.isfinite(exp2(np.diag([700.0, -700.0]))))
    assert np.all(np.isfinite(lorentz_boost(710.0)))
    # The bracket end 1.5 pi/c of s_int is still finite here.
    assert s_int(2.7e-308) == 1.1635528346628864e+308
