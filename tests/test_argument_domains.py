"""The argument domains of the public geodesic and automorphism functions.

A NaN or infinite argument raises NonFiniteError naming that argument, and a
finite one whose geodesic overflows raises NonFiniteError naming the pair;
neither may surface as a bare ValueError from math.
"""

import math
import re

import numpy as np
import pytest

from sl2geo import (QuotientPoint, aut_matrix_from_group, c_of_omega,
                    check_fan_monotone, classify_structure, distance_to_class,
                    is_lie_automorphism, is_so12, landing_match_error,
                    landing_point, landing_time, lift, lift_with_direction,
                    planar_geodesic, planar_jet, radius_sq, s_int,
                    su2_landing_point, su2_landing_time, su2_planar_geodesic,
                    x_int)
from sl2geo.errors import NonFiniteError
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
    # The bracket end 1.5 pi/c of s_int is still finite here.
    assert s_int(2.7e-308) == 1.1635528346628864e+308
