import math
import sys
import types
from collections import Counter

import numpy as np
import pytest

from sl2geo import (C_LANDING, C_ORTHOGONAL, QuotientPoint, basis,
                    distance_to_class, k1k2, landing_point, landing_time, lift,
                    planar_geodesic, planar_jet, project, radius_sq, s_int,
                    sample_path, to_coords, x_int)
from sl2geo import geodesics, synthesis
from sl2geo._kernels import bisect, coshc, sinhc
from sl2geo.errors import (BadGridError, NonFiniteError, OutOfRegimeError,
                           UnboundedError)
from sl2geo.figures import FAN_C_VALUES
from sl2geo.geodesics import planar_curve
from sl2geo.tolerances import SERIES_CUTOFF

A0, A1, A2 = basis()

SQRT3_PI = math.sqrt(3.0) * math.pi


def tan_fixed_point():
    """Independent oracle for the root of tan(s) = s in (pi, 3pi/2)."""
    lo, hi = math.pi + 1e-9, 1.5 * math.pi - 1e-9
    f = lambda s: math.sin(s) - s * math.cos(s)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestK1K2:
    def test_pure_hyperbolic(self):
        assert k1k2(0.0, 2.0) == pytest.approx((math.cosh(2.0), 0.0), abs=1e-15)

    def test_linear_regime(self):
        assert k1k2(1.0, 3.0) == pytest.approx((1.0, 3.0), abs=1e-15)
        assert k1k2(-1.0, 3.0) == pytest.approx((1.0, -3.0), abs=1e-15)

    def test_trigonometric_regime(self):
        for s in (0.3, 1.0, 2.4):
            k1, k2 = k1k2(2.0, s)
            assert k1 == pytest.approx(math.cos(math.sqrt(3.0) * s), abs=1e-14)
            assert k2 == pytest.approx(
                2.0 / math.sqrt(3.0) * math.sin(math.sqrt(3.0) * s), abs=1e-14)

    def test_branch_continuity_near_one(self):
        for s in (0.5, 2.0, 4.0):
            below = k1k2(1.0 - 1e-9, s)
            at = k1k2(1.0, s)
            above = k1k2(1.0 + 1e-9, s)
            assert below == pytest.approx(at, abs=1e-7)
            assert above == pytest.approx(at, abs=1e-7)

    def test_same_bits_as_the_separate_kernels(self, rng):
        for _ in range(200):
            c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.0, 20.0))
            z = ((1.0 - c * c) * s) * s
            assert k1k2(c, s) == (coshc(z), (c * s) * sinhc(z))


class TestPlanarGeodesic:
    def test_axis_family(self):
        for s in (0.0, 0.7, 2.0):
            p = planar_geodesic(0.0, s)
            assert p.x == pytest.approx(math.cosh(s), abs=1e-14)
            assert p.y == 0.0

    def test_landing_family_reaches_minus_one(self):
        p = planar_geodesic(2.0 / math.sqrt(3.0), SQRT3_PI)
        assert p.x == pytest.approx(-1.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_reflection_symmetry(self, rng):
        for _ in range(50):
            c = rng.uniform(-2.5, 2.5)
            s = rng.uniform(0.0, 5.0)
            p = planar_geodesic(c, s)
            q = planar_geodesic(-c, s)
            assert q.x == pytest.approx(p.x, abs=1e-13)
            assert q.y == pytest.approx(-p.y, abs=1e-13)

    def test_starts_at_one_zero(self, rng):
        for _ in range(20):
            p = planar_geodesic(rng.uniform(-3, 3), 0.0)
            assert p == (1.0, 0.0)


class TestRadius:
    def test_hyperbolic_value(self):
        assert radius_sq(0.0, 1.0) == pytest.approx(math.cosh(1.0) ** 2, abs=1e-14)

    def test_linear_value(self):
        assert radius_sq(1.0, 2.0) == pytest.approx(5.0, abs=1e-14)

    def test_trigonometric_touches_circle(self):
        for c in (1.2, 1.7, 3.0):
            assert radius_sq(c, math.pi / math.sqrt(c * c - 1.0)) == pytest.approx(
                1.0, abs=1e-12)

    def test_monotone_in_s_below_one(self, rng):
        for c in (0.0, 0.4, 0.9, 1.0):
            grid = np.linspace(0.01, 6.0, 300)
            values = [radius_sq(c, float(s)) for s in grid]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestLanding:
    def test_time_value(self):
        assert landing_time(math.sqrt(2.0)) == pytest.approx(math.pi, abs=1e-15)

    def test_boundary_parameter(self):
        # 2/sqrt(3) and sqrt(4/3) round to different floats; both are accepted.
        for c in (C_LANDING, math.sqrt(4.0 / 3.0)):
            assert landing_time(c) == pytest.approx(SQRT3_PI, abs=1e-12)
            assert landing_point(c).x == pytest.approx(-1.0, abs=1e-12)

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            landing_time(1.0)
        with pytest.raises(OutOfRegimeError):
            landing_point(0.5)

    def test_point_on_circle(self):
        p = landing_point(math.sqrt(2.0))
        assert p.x == pytest.approx(-math.cos(math.sqrt(2.0) * math.pi), abs=1e-14)
        assert p.y == pytest.approx(-math.sin(math.sqrt(2.0) * math.pi), abs=1e-14)
        assert p.radius_sq == pytest.approx(1.0, abs=1e-14)

    def test_abscissa_increases_with_c(self):
        grid = np.linspace(C_LANDING + 1e-6, 40.0, 400)
        xs = [landing_point(float(c)).x for c in grid]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert landing_time(grid[-1]) < 0.1  # short geodesics for large c
        assert xs[-1] > 0.98  # abscissa approaches 1

    @pytest.mark.parametrize("c", [2.5, -40.0, 1e8, 1e100, 1e150, -1e150])
    def test_direct_formula_up_to_huge_param(self, c):
        alpha = c * math.pi / math.sqrt(c * c - 1.0)
        assert landing_point(c) == (-math.cos(alpha), -math.sin(alpha))
        assert landing_time(c) == math.pi / math.sqrt(c * c - 1.0)

    @pytest.mark.parametrize("c", [1.0000001e150, 1e160, -1e160, 1e300, -1.7e308])
    def test_huge_parameter_lands_at_one(self, c):
        # c^2 overflows from |c| ~ 1.34e154; alpha = c pi/sqrt(c^2 - 1) is
        # +-pi to double precision well before that.
        p = landing_point(c)
        assert p.x == 1.0
        assert abs(p.y) <= 1.3e-16
        assert landing_time(c) == s_int(c) == math.pi / abs(c)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, c):
        for landing in (landing_time, landing_point):
            with pytest.raises(NonFiniteError, match="is not finite"):
                landing(c)


class TestSInt:
    def test_fixed_point_of_tangent(self):
        sbar = tan_fixed_point()
        assert s_int(1.0) == pytest.approx(sbar, abs=1e-10)
        assert sbar == pytest.approx(4.49341, abs=1e-5)

    def test_orthogonal_crossing_time(self):
        assert s_int(C_ORTHOGONAL) == pytest.approx(math.pi * math.sqrt(2.0),
                                                    abs=1e-12)

    def test_boundary_crossing_time(self):
        assert s_int(C_LANDING) == pytest.approx(SQRT3_PI, abs=1e-9)

    def test_crossing_actually_crosses(self, rng):
        for _ in range(40):
            c = rng.uniform(0.05, C_LANDING)
            p = planar_geodesic(c, s_int(c))
            # Crossing values grow like e^{s}; accuracy is relative to |x|.
            assert abs(p.y) <= 1e-9 * max(1.0, abs(p.x))
            assert p.x < 0.0

    def test_unbounded_at_zero(self):
        with pytest.raises(UnboundedError):
            s_int(0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, c):
        with pytest.raises(NonFiniteError):
            s_int(c)

    def test_even_in_c(self):
        for c in (0.3, 0.8, 1.1, 1.4):
            assert s_int(-c) == s_int(c)

    def test_continuity_across_one(self):
        assert abs(s_int(1.0 - 1e-9) - s_int(1.0)) < 1e-6
        assert abs(s_int(1.0 + 1e-9) - s_int(1.0)) < 1e-6

    def test_boundary_value_evaluated_once(self, monkeypatch):
        # For 1 < |c| <= 2/sqrt(3) the end value y(hi) that s_int hands to
        # bisect is the y(hi) > 0 test: at c = 1.1 the search takes 44
        # evaluations of y, both ends included, and none twice.
        calls = []

        def capturing(f, a, b, fa, fb):
            calls.extend((a, b))
            return bisect(lambda s: calls.append(s) or f(s), a, b, fa, fb)

        monkeypatch.setattr(geodesics, "bisect", capturing)
        s_int(1.1)
        assert len(calls) == len(set(calls)) == 44

    def test_landing_regime_bit_identical_to_explicit_boundary_test(self):
        # The former boundary test, y(hi) > 0 before bisecting, on a dense
        # grid over (1, 2/sqrt(3)] and the floats just below 2/sqrt(3).
        def y(c, s):
            k1, k2 = k1k2(c, s)
            return k1 * math.sin(c * s) - k2 * math.cos(c * s)

        def explicit(c):
            hi = 2.0 * math.pi / c
            if y(c, hi) > 0.0:
                return hi
            return bisect(lambda s: y(c, s), math.pi / c, hi, y(c, math.pi / c), y(c, hi))

        cs = [float(c) for c in np.linspace(1.0, C_LANDING, 2001)[1:]]
        for _ in range(20):
            cs.append(math.nextafter(cs[-1], 0.0))
        assert [s_int(c) for c in cs] == [explicit(c) for c in cs]
        assert any(s_int(c) == 2.0 * math.pi / c for c in cs)  # y(hi) > 0 is met

    def test_bracket_start_past_the_crossing(self):
        # Below |c| ~ 3e-16, c (pi/c) can round above pi, so y < 0 already at
        # the bracket start pi/c; the crossing, ~pi/c + 1, rounds to pi/c.
        for c in (4.707403601354601e-90, -4.707403601354601e-90):
            assert s_int(c) == math.pi / abs(c)
        for c in 10.0 ** np.random.default_rng(45).uniform(-300.0, -15.5, 2000):
            c = float(c)
            assert math.pi / c <= s_int(c) <= math.pi / c * (1.0 + 1e-15)

    def test_tiny_parameter_does_not_overflow(self):
        # The raw crossing values scale like exp(pi/c); the normalized
        # objective keeps the root solvable for arbitrarily small c.
        c = 1e-4
        s = s_int(c)
        assert math.pi / c < s < 1.5 * math.pi / c
        w = math.sqrt(1.0 - c * c)
        assert math.tan(c * s) == pytest.approx(c / w * math.tanh(w * s),
                                                abs=1e-6)



# s_int(c) recorded before its objectives were inlined, asserted exactly: the
# tanh and series forms of k2/k1 (c up to 1), both sides of c = 1, the
# trigonometric regime up to 2/sqrt(3) and the two floats below it (one of
# which returns the bracket end), with both signs.  c = 0.7 was re-recorded
# (1 ulp lower) when the |c| <= 1 bracket became [F(pi/c), F(1.5 pi/c)].
_S_INT_PINS = [
    (1e-300, 3.141592653589793e+300),
    (1e-100, 3.141592653589793e+100),
    (1e-08, 314159266.3589793),
    (0.0045, 699.1317041727626),
    (0.3, 11.487617691439036),
    (0.7, 5.595217024416491),
    (0.999999999, 4.493409459406867),
    (0.999999999999, 4.493409457910562),
    (0.9999999999999999, 4.493409457909065),
    (1.0, 4.493409457909064),
    (1.0000000000000002, 4.493409457909064),
    (1.000000000001, 4.493409457907566),
    (1.000000001, 4.4934094564112605),
    (1.1, 4.478938605666786),
    (C_ORTHOGONAL, 4.442882938158366),
    (1.15, 4.895225102314381),
    (1.1547005383792512, 5.441373440868593),
    (1.1547005383792515, 5.441398092702654),
    (C_LANDING, 5.441398092702652),
    (-1e-300, 3.141592653589793e+300),
    (-0.3, 11.487617691439036),
    (-0.999999999999, 4.493409457910562),
    (-1.0, 4.493409457909064),
    (-1.000000001, 4.4934094564112605),
    (-C_ORTHOGONAL, 4.442882938158366),
    (-1.1547005383792515, 5.441398092702654),
    (-C_LANDING, 5.441398092702652),
]


@pytest.mark.parametrize("c, s", _S_INT_PINS)
def test_s_int_pinned(c, s):
    assert s_int(c) == s


def _y_reference(c, s):
    # y(s)/k1(s) = sin(cs) - (k2/k1) cos(cs) for c <= 1, with k2/k1 by its
    # series or as (c/w) tanh(w s); y(s) from the public k1k2 above 1.
    if c > 1.0:
        k1, k2 = k1k2(c, s)
        return k1 * math.sin(c * s) - k2 * math.cos(c * s)
    z = (1.0 - c * c) * s * s
    if z < SERIES_CUTOFF:
        tau = c * s * (1.0 - z * (1.0 / 3.0 - z * 2.0 / 15.0))
    else:
        w = math.sqrt(1.0 - c * c)
        tau = c / w * math.tanh(w * s)
    return math.sin(c * s) - tau * math.cos(c * s)


def test_s_int_objective_matches_reference(monkeypatch):
    # Every value the s_int search evaluates equals the reference y, bit for
    # bit, over the series band on both sides of c = 1 and both regimes.
    calls, parts = [], Counter()

    def capturing(f, a, b, fa, fb):
        def objective(s):
            value = f(s)
            calls.append((s, value))
            return value
        calls.extend(((a, fa), (b, fb)))
        return bisect(objective, a, b, fa, fb)

    monkeypatch.setattr(geodesics, "bisect", capturing)
    for c, _ in _S_INT_PINS:
        del calls[:]
        s_int(c)
        c = abs(c)
        for s, value in calls:
            assert value == _y_reference(c, s), (c, s)
            series = abs((1.0 - c * c) * s * s) < SERIES_CUTOFF
            parts[("trig" if c > 1.0 else "hyp", series)] += 1
    assert len(parts) == 4, parts


# The search objectives: s_int's y and the fan's three parts, nested in the
# functions that build them.
_OBJECTIVES = {code for fn in (geodesics.s_int, synthesis._fan)
               for code in fn.__code__.co_consts if isinstance(code, types.CodeType)
               and code.co_name in ("y", "falling", "rising", "hyperbolic")}


def _python_calls(fn, *args):
    # (Python function calls, objective evaluations) during fn(*args); an
    # evaluation is a call of a search objective, whoever makes it: a root
    # finder, or its caller at a bracket end, a junction or the answer.
    calls = evaluations = 0

    def profile(frame, event, arg):
        nonlocal calls, evaluations
        if event == "call":
            calls += 1
            evaluations += frame.f_code in _OBJECTIVES

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls, evaluations


def test_one_python_frame_per_search_step():
    # Counts, not times: each step of a root search is one Python frame.
    # The fan search of a regular target (r <= 3, so zeroin): 7 calls
    # besides its evaluations (distance_to_class, _distance, _stratum, _fan,
    # zeroin, crossing and the result's constructor).
    assert len(_OBJECTIVES) == 5
    calls, evaluations = _python_calls(distance_to_class, QuotientPoint(0.0, 1.5))
    assert calls == evaluations + 7, (calls, evaluations)
    # s_int: besides its objective, only s_int, _finite and bisect run.
    for c in (0.3, 1.0, 1.1):
        calls, evaluations = _python_calls(s_int, c)
        assert calls == evaluations + 3, (c, calls, evaluations)


def test_solve_group_layer_in_one_frame():
    # Counts, not times: around its one call into _distance, solve makes at
    # most 16 Python calls on the worked example, itself and that call
    # included: _entries twice, _check_unimodular for Xi, X_hat and the A2
    # lift, coshc_sinhc for exp(-c A0 t) and both lifts, _align, _mul twice
    # for K A2 K^T, _matrix for P and K, and the result's constructor.
    names = []
    inside = 0

    def profile(frame, event, arg):
        nonlocal inside
        if event == "call" and inside:
            inside += 1  # a frame below _distance
        elif event == "call":
            names.append(frame.f_code.co_name)
            inside = int(frame.f_code is synthesis._distance.__code__)
        elif event == "return" and inside:
            inside -= 1

    xi, xf = np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])
    sys.setprofile(profile)
    try:
        synthesis.solve(xi, xf)
    finally:
        sys.setprofile(None)
    assert names.count("_distance") == 1 and names[0] == "solve", names
    assert len(names) <= 16, names


class TestXInt:
    def test_limit_at_one(self):
        sbar = tan_fixed_point()
        assert -x_int(1.0) == pytest.approx(math.sqrt(1.0 + sbar * sbar), abs=1e-9)
        assert -x_int(1.0) == pytest.approx(4.60333, abs=1e-5)

    def test_boundary_value(self):
        assert x_int(C_LANDING) == pytest.approx(-1.0, abs=1e-9)

    def test_magnitude_decreasing(self):
        grid = np.concatenate([np.linspace(0.05, 0.999, 120),
                               np.linspace(1.001, C_LANDING, 60)])
        values = [-x_int(float(c)) for c in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            x_int(1.5)

    def test_unbounded_at_zero(self):
        with pytest.raises(UnboundedError, match="never crosses the negative axis"):
            x_int(0.0)

    def test_finite_where_the_squared_radius_overflows(self):
        # k1^2 + k2^2 overflows below c ~ 0.0088, the end point only below
        # c ~ 0.00443 (where x_int raises NonFiniteError).
        for c in (0.0045, 0.006):
            k1, k2 = k1k2(c, s_int(c))
            assert math.isinf(k1 * k1 + k2 * k2)
            assert -math.inf < x_int(c) < -1e150
            assert x_int(c) == -math.hypot(k1, k2)


class TestMirrorTimeSymmetry:
    def test_orthogonal_family_symmetry(self):
        # The +-3/(2 sqrt 2) pair swap roles when time is reflected about
        # the orthogonal crossing at s = pi sqrt 2.
        base = math.pi * math.sqrt(2.0)
        for i in range(51):
            T = base * i / 50.0
            a = planar_geodesic(C_ORTHOGONAL, base - T)
            b = planar_geodesic(-C_ORTHOGONAL, base + T)
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.y == pytest.approx(b.y, abs=1e-9)


class TestNonIntersection:
    @pytest.mark.parametrize("c1, c2", [(0.3, 0.9), (0.9, 1.2), (1.05, 1.5),
                                        (0.5, 2.2), (1.0, 1.4)])
    def test_distinct_parameters_never_meet(self, c1, c2):
        def optimal_samples(c, n=400):
            top = s_int(c)
            return np.array([planar_geodesic(c, top * i / (n - 1))
                             for i in range(n)])

        a = optimal_samples(c1)
        b = optimal_samples(c2)
        # Exclude a neighborhood of the shared start point.
        a = a[np.hypot(a[:, 0] - 1.0, a[:, 1]) > 0.1]
        b = b[np.hypot(b[:, 0] - 1.0, b[:, 1]) > 0.1]
        dist = np.min(np.hypot(a[:, None, 0] - b[None, :, 0],
                               a[:, None, 1] - b[None, :, 1]))
        assert dist > 1e-3

    def test_mirror_pair_meets_only_on_axis(self):
        c = 0.8
        s_cross = s_int(c)
        p = planar_geodesic(c, s_cross)
        q = planar_geodesic(-c, s_cross)
        assert p.x == pytest.approx(q.x, abs=1e-9)
        assert abs(p.y) < 1e-9 and abs(q.y) < 1e-9
        for frac in np.linspace(0.05, 0.95, 30):
            a = planar_geodesic(c, s_cross * frac)
            b = planar_geodesic(-c, s_cross * frac)
            assert math.hypot(a.x - b.x, a.y - b.y) > 1e-3


class TestLift:
    def test_axis_lift_is_boost(self):
        expected = np.array([[math.cosh(0.5), math.sinh(0.5)],
                             [math.sinh(0.5), math.cosh(0.5)]])
        assert np.allclose(lift(0.0, 0.0, 1.0), expected, atol=1e-14)

    def test_reference_endpoint_matrix(self):
        # Lift at the reference example's rounded parameters; the displayed
        # matrix is reproducible to the ~1e-4 consistency of its own digits.
        y_f = lift(1.257558, 0.5 * math.pi, 2.0 * 2.78115)
        shown = np.array([[-1.04802976, 1.11041756], [-1.8896115, 1.04792621]])
        assert np.max(np.abs(y_f - shown)) < 2e-4

    def test_unimodular(self, rng):
        for _ in range(50):
            x = lift(rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi),
                     rng.uniform(0, 5))
            assert abs(np.linalg.det(x) - 1.0) < 1e-11 * max(1.0, np.sum(x * x))

    def test_projection_independent_of_phi(self, rng):
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0)
            t = rng.uniform(0.1, 5.0)
            reference = planar_geodesic(c, 0.5 * t)
            for phi in rng.uniform(-math.pi, math.pi, 3):
                p = project(lift(c, float(phi), t))
                scale = max(1.0, abs(reference.x))
                assert abs(p.x - reference.x) < 1e-9 * scale
                assert abs(p.y - reference.y) < 1e-9 * scale

    def test_unit_speed_in_body_frame(self, rng):
        # Horizontality and arclength: the body-frame velocity X^{-1} X'
        # has no vertical component and unit horizontal norm.  (The two
        # product orderings are conjugate by a rotation; this ordering is
        # horizontal in the body frame.)
        h = 1e-6
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0)
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(0.1, 4.0)
            x = lift(c, phi, t)
            xdot = (lift(c, phi, t + h) - lift(c, phi, t - h)) / (2.0 * h)
            x_inv = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
            v = to_coords(x_inv @ xdot)
            assert abs(v[0]) < 1e-7
            assert v[1] ** 2 + v[2] ** 2 == pytest.approx(1.0, abs=1e-7)


class TestSamplePath:
    def test_two_point_axis_path(self):
        samples = sample_path(0.0, 1.0, 2)
        assert samples[0] == (0.0, 1.0, 0.0)
        assert samples[1].s == 1.0
        assert samples[1].x == pytest.approx(math.cosh(1.0), abs=1e-14)

    def test_landing_path_ends_on_circle(self):
        samples = sample_path(1.2, landing_time(1.2), 100)
        last = samples[-1]
        assert last.x ** 2 + last.y ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_mirror_paths(self):
        up = sample_path(0.9, 3.0, 50)
        down = sample_path(-0.9, 3.0, 50)
        for a, b in zip(up, down):
            # == on floats: the reflection is exact, bit for bit.
            assert a.x == b.x
            assert a.y == -b.y

    def test_bad_grid(self):
        with pytest.raises(BadGridError):
            sample_path(1.0, 1.0, 1)
        with pytest.raises(BadGridError):
            sample_path(1.0, -1.0, 10)

    @pytest.mark.parametrize("s_max, n", [(math.inf, 5), (1e308, 3), (math.nan, 5)])
    def test_non_finite_grid(self, s_max, n):
        with pytest.raises(BadGridError):
            sample_path(1.0, s_max, n)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, c):
        with pytest.raises(NonFiniteError):
            sample_path(c, 1.0, 5)


_CURVE_CS = [sign * c for c in (1e-3, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1,
                                 C_LANDING, C_ORTHOGONAL, 2.5)
             for sign in (1.0, -1.0)]
_CURVE_GRIDS = ((landing_time(2.5), 7), (3.0, 400), (12.0, 33))


def _per_point(c, s_max, n):
    # planar_geodesic at each grid point, flattened as planar_curve returns it.
    return [v for i in range(n) for v in planar_geodesic(c, s_max * i / (n - 1))]


def _reflected(xy):
    return [-v if i % 2 else v for i, v in enumerate(xy)]


class TestPlanarCurve:
    @pytest.mark.parametrize("c", _CURVE_CS)
    def test_equals_planar_geodesic_per_point(self, c):
        for s_max, n in _CURVE_GRIDS:
            # == on floats: the grid loops are planar_geodesic, bit for bit.
            assert planar_curve(c, s_max, n) == _per_point(c, s_max, n)

    @pytest.mark.parametrize("c", [0.0, 1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-9,
                                   1.0 + 1e-6, 1.0 - 1e-6, 1e-3, -1e-3])
    def test_regime_change_mid_grid(self, c):
        # z = (1 - c^2) s^2 leaves the series band of coshc_sinhc in the
        # middle of one of these grids, where the sampler's series prefix
        # hands over to its cosh/sinh or cos/sin loop; for |c| = 1, z = 0
        # and the whole grid is the prefix.
        q = 1.0 - c * c
        prefixes = []
        for s_max, n in ((1e-3, 401), (3.0, 400)):
            grid = [s_max * i / (n - 1) for i in range(n)]
            prefixes.append(sum(abs(q * s * s) < SERIES_CUTOFF for s in grid))
            assert planar_curve(c, s_max, n) == _per_point(c, s_max, n)
        if q == 0.0:
            assert prefixes == [401, 400]
        else:
            assert any(2 < prefix < 398 for prefix in prefixes)

    @pytest.mark.parametrize("c", _CURVE_CS)
    def test_mirror_is_exact_reflection(self, c):
        # The figures draw the -c curve as the reflection of the c curve.
        for s_max, n in _CURVE_GRIDS:
            assert planar_curve(-c, s_max, n) == _reflected(planar_curve(c, s_max, n))

    @pytest.mark.parametrize("c", [c for c, _ in FAN_C_VALUES])
    def test_fan_mirror_is_exact_reflection(self, c):
        assert planar_curve(-c, s_int(-c), 400) == _reflected(planar_curve(c, s_int(c), 400))

    def test_sample_path_shares_the_grid(self):
        samples = sample_path(0.9, 3.0, 20)
        assert [v for p in samples for v in (p.x, p.y)] == planar_curve(0.9, 3.0, 20)
        assert [p.s for p in samples] == [3.0 * i / 19 for i in range(20)]

    @pytest.mark.parametrize("c, s_max", [
        (1e308, 1.0),   # 1 - c^2 overflows
        (1e200, 2.0),
        (-1e200, 2.0),
        (0.5, 1000.0),  # the hyperbolic radius overflows at the end
        (1e-3, 900.0),
        (1e300, 1e10),  # c s_max overflows
    ])
    def test_overflow_raises(self, c, s_max):
        with pytest.raises(NonFiniteError, match="overflows the geodesic"):
            planar_curve(c, s_max, 3)

    def test_largest_finite_hyperbolic_end(self):
        # Just below the overflow of cosh the end point is still finite.
        assert all(math.isfinite(v) for v in planar_curve(0.0, 710.0, 3))

    def test_saturated_hyperbolic_end_raises(self):
        # Past s = 710 cosh overflows (coshc_sinhc saturates to inf there):
        # the sampler and the per-point function raise the same typed error,
        # not OverflowError.
        with pytest.raises(NonFiniteError, match="s_max = 711.0 overflows the geodesic"):
            planar_curve(0.0, 711.0, 3)
        with pytest.raises(NonFiniteError, match="s = 711.0 overflows the geodesic"):
            planar_geodesic(0.0, 711.0)


class TestPlanarJet:
    def test_consistent_with_finite_differences(self, rng):
        h = 1e-6
        for _ in range(30):
            c = rng.uniform(-2.0, 2.0)
            s = rng.uniform(0.1, 4.0)
            jet = planar_jet(c, s)
            plus = planar_geodesic(c, s + h)
            minus = planar_geodesic(c, s - h)
            # d/dt = (1/2) d/ds
            assert jet.vx == pytest.approx((plus.x - minus.x) / (4.0 * h), abs=1e-6)
            assert jet.vy == pytest.approx((plus.y - minus.y) / (4.0 * h), abs=1e-6)

    def test_orthogonal_crossing_slope(self):
        jet = planar_jet(C_ORTHOGONAL, s_int(C_ORTHOGONAL))
        assert abs(2.0 * jet.vx) <= 1e-6  # dx/ds vanishes: orthogonal hit
        assert 2.0 * jet.vy < 0.0
