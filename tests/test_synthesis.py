import math

import numpy as np
import pytest

from sl2geo import (C_LANDING, CutLocusClass, QuotientPoint, SynthesisSolution,
                    basis, check_fan_monotone, classify_cut_locus,
                    distance_to_class, exp2, landing_point, lift,
                    planar_geodesic, project, rotation, s_int, solve,
                    verify_solution)
from sl2geo.errors import (NonFiniteError, NotUnimodularError,
                           StartPointError, UnreachableError)

from conftest import random_sl2

A0, A1, A2 = basis()

# Independently verified root of the reference endpoint problem (40-digit
# Newton on the closed-form system x(c,s) = 0, y(c,s) = 3/2).
REF_C = 1.2575651629220838
REF_S = 2.7811611345877465


class TestClassify:
    def test_circle_point(self):
        tag = classify_cut_locus(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert tag is CutLocusClass.SINGULAR_CIRCLE

    def test_negative_axis_point(self):
        tag = classify_cut_locus(np.array([[-2.0, 1.0], [1.0, -1.0]]))
        assert tag is CutLocusClass.NEGATIVE_AXIS_SEGMENT

    def test_regular_point_on_positive_axis(self):
        tag = classify_cut_locus(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert tag is CutLocusClass.REGULAR

    def test_identity_is_start_point(self):
        assert classify_cut_locus(np.eye(2)) is CutLocusClass.START_POINT

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            classify_cut_locus(np.array([[2.0, 0.0], [0.0, 2.0]]))


class TestDistance:
    @pytest.mark.parametrize("x, y, name", [
        (math.nan, 1.5, "x"), (0.0, math.nan, "y"),
        (math.inf, 0.0, "x"), (-2.0, -math.inf, "y"),
    ])
    def test_rejects_non_finite_target(self, x, y, name):
        with pytest.raises(NonFiniteError, match=f"coordinate {name} = "):
            distance_to_class(QuotientPoint(x, y))

    @pytest.mark.parametrize("x, y", [(1e200, 1e199), (-1e200, 0.0),
                                      (-1e160, 1e160)])
    def test_rejects_overflowing_radius(self, x, y):
        with pytest.raises(NonFiniteError, match="squared radius"):
            distance_to_class(QuotientPoint(x, y))

    def test_positive_axis_closed_form(self):
        res = distance_to_class(QuotientPoint(math.cosh(0.5), 0.0))
        assert res.c == 0.0
        assert res.t_f == pytest.approx(1.0, abs=1e-12)
        assert not res.on_cut_locus

    def test_reference_target(self):
        res = distance_to_class(QuotientPoint(0.0, 1.5))
        assert res.c == pytest.approx(REF_C, abs=1e-9)
        assert res.s == pytest.approx(REF_S, abs=1e-9)
        assert res.t_f == pytest.approx(2.0 * REF_S, abs=1e-9)
        assert not res.on_cut_locus

    def test_far_corner_of_cut_locus(self):
        res = distance_to_class(QuotientPoint(-1.0, 0.0))
        assert res.c == pytest.approx(C_LANDING, abs=1e-9)
        assert res.s == pytest.approx(math.sqrt(3.0) * math.pi, abs=1e-9)
        assert res.on_cut_locus

    def test_axis_cut_target(self):
        res = distance_to_class(QuotientPoint(-2.5, 0.0))
        assert res.on_cut_locus
        assert res.c > 0.0
        import sl2geo
        assert sl2geo.x_int(res.c) == pytest.approx(-2.5, abs=1e-9)

    def test_circle_targets_match_landing_parameters(self):
        for theta in np.linspace(-3.0, 3.0, 25):
            if abs(theta) < 1e-3:
                continue
            target = QuotientPoint(math.cos(theta), math.sin(theta))
            res = distance_to_class(target)
            assert res.on_cut_locus
            land = landing_point(res.c)
            assert math.hypot(land.x - target.x, land.y - target.y) < 1e-8
            assert res.t_f == pytest.approx(
                2.0 * math.pi / math.sqrt(res.c ** 2 - 1.0), abs=1e-10)

    def test_sign_follows_target(self):
        up = distance_to_class(QuotientPoint(0.0, 1.5))
        down = distance_to_class(QuotientPoint(0.0, -1.5))
        assert down.c == pytest.approx(-up.c, abs=1e-12)
        assert down.t_f == pytest.approx(up.t_f, abs=1e-12)

    def test_extreme_targets_remain_solvable(self):
        # Far and shallow-angle targets drive the bisection through tiny
        # parameters whose raw crossing data overflows; the solver must not.
        for x, y in ((1.0e5, 1.0), (-4000.0, 1.0e-3), (1.0e80, 1.0e79),
                     (2.0, 1.0e-8), (1.0e3, -1.0e3)):
            res = distance_to_class(QuotientPoint(x, y))
            p = planar_geodesic(res.c, res.s)
            scale = max(1.0, math.hypot(x, y))
            assert math.hypot(p.x - x, p.y - y) <= 1e-8 * scale

    def test_interior_of_disc_unreachable(self):
        with pytest.raises(UnreachableError):
            distance_to_class(QuotientPoint(0.3, 0.4))

    def test_start_point_rejected(self):
        with pytest.raises(StartPointError):
            distance_to_class(QuotientPoint(1.0, 0.0))


# Targets just off the axis-cut segment: x = -3 (where the c = 3/(2 sqrt 2)
# geodesic crosses the axis orthogonally) and its neighbours, and x = -r at
# other radii down to the edge of the circle's singular band, each with |y|
# from 1e-9 to 5e-6 on both sides.
_BAND_YS = [sign * m * 10.0 ** e for sign in (1.0, -1.0)
            for m in (1.0, 2.0, 5.0) for e in range(-9, -5)]
_BAND_XS = ([-3.0 + d for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)]
            + [-3.0 + 0.025 * k for k in range(-12, 13)]
            + [-r for r in (1.0 + 1e-7, 1.0001, 1.05, 2.0, 2.9, 3.1, 10.0)])


class TestNearAxisBand:
    def test_band_targets_solved_to_residual(self):
        worst = 0.0
        for x in _BAND_XS:
            for y in _BAND_YS:
                res = distance_to_class(QuotientPoint(x, y))
                p = planar_geodesic(res.c, res.s)
                scale = max(1.0, math.hypot(x, y))
                worst = max(worst, math.hypot(p.x - x, p.y - y) / scale)
        assert worst <= 2e-9

    def test_pinned_crossing_times(self):
        # 40-digit reference values of the minimizing time.
        for x, y, t_f, tol in ((-3.0, 0.01, 8.8786948398332663, 1e-9),
                               (-3.0, 0.001, 8.8850587695668526, 1e-9),
                               (-1.001, 0.0, 10.793400644616989, 1e-9),
                               (-3.0, 0.0, 8.8857658763167325, 1e-9),
                               (-1.00001, 0.0, 10.873851960700912, 1e-8)):
            res = distance_to_class(QuotientPoint(x, y))
            assert res.t_f == pytest.approx(t_f, abs=tol), (x, y)


class TestSolve:
    def test_reference_endpoint_problem(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert sol.c == pytest.approx(REF_C, abs=1e-9)
        assert sol.t_f == pytest.approx(2.0 * REF_S, abs=1e-9)
        assert sol.residual <= 1e-9
        assert not sol.on_cut_locus
        # Printed reference values: consistent with the exact solution to
        # ~1e-5 (c) and ~5e-4 (K, P); asserted at that supported precision.
        assert sol.c == pytest.approx(1.257558, abs=1e-5)
        assert 0.5 * sol.t_f == pytest.approx(2.78115, abs=2e-5)
        k_ref = np.array([[0.9170700563, 0.39872611144],
                          [-0.39872611144, 0.9170700563]])
        assert np.max(np.abs(sol.K - k_ref)) < 5e-4
        p_ref = 0.5 * np.array([[0.682034976, -0.73131955488],
                                [-0.73131955488, -0.682034976]])
        assert np.max(np.abs(sol.P - p_ref)) < 5e-4

    def test_direction_is_unit_norm(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert 2.0 * float(np.sum(sol.P * sol.P)) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(sol.P) == pytest.approx(0.0, abs=1e-12)

    def test_axis_target_gives_horizontal_direction(self):
        sol = solve(np.eye(2), exp2(A1))
        assert sol.c == 0.0
        assert sol.t_f == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.P, A1, atol=1e-9)

    def test_infinite_family_cut_target(self):
        c = 1.5
        t_cut = 2.0 * math.pi / math.sqrt(c * c - 1.0)
        xf = -exp2(-c * t_cut * A0)
        sol = solve(np.eye(2), xf)
        assert sol.on_cut_locus
        assert sol.c == pytest.approx(c, abs=1e-9)
        assert verify_solution(sol, np.eye(2), xf) <= 1e-9

    def test_right_invariance(self, rng):
        for _ in range(20):
            xi = random_sl2(rng)
            xf = random_sl2(rng)
            x_hat = xf @ np.array([[xi[1, 1], -xi[0, 1]], [-xi[1, 0], xi[0, 0]]])
            if math.hypot(*(project(x_hat) - np.array([1.0, 0.0]))) < 1e-6:
                continue
            a = solve(xi, xf)
            b = solve(np.eye(2), x_hat)
            assert a.c == pytest.approx(b.c, abs=1e-12)
            assert a.t_f == pytest.approx(b.t_f, abs=1e-12)

    def test_generate_and_invert(self, rng):
        for _ in range(50):
            c = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
            phi = rng.uniform(-math.pi, math.pi)
            s = min(rng.uniform(0.05, 0.95) * s_int(abs(c)), 12.0)
            target = lift(c, phi, 2.0 * s)
            sol = solve(np.eye(2), target)
            assert sol.c == pytest.approx(c, abs=1e-6)
            assert sol.t_f == pytest.approx(2.0 * s, abs=1e-6)

    def test_positive_axis_distance_closed_form(self, rng):
        for _ in range(20):
            x = rng.uniform(1.05, 20.0)
            rep = np.array([[x, math.sqrt(x * x - 1.0)],
                            [math.sqrt(x * x - 1.0), x]])
            sol = solve(np.eye(2), rep)
            assert sol.t_f == pytest.approx(2.0 * math.acosh(x), rel=1e-12)

    def test_cut_time_bound(self, rng):
        for _ in range(30):
            target = random_sl2(rng)
            p = project(target)
            if math.hypot(p.x - 1.0, p.y) < 1e-6:
                continue
            sol = solve(np.eye(2), target)
            if sol.c == 0.0:
                continue
            assert sol.t_f <= 2.0 * s_int(abs(sol.c)) + 1e-6

    def test_start_point_target_rejected(self):
        with pytest.raises(StartPointError):
            solve(np.eye(2), np.eye(2))

    def test_non_finite_endpoint_rejected(self):
        xf = np.array([[2.0, 1.0], [1.0, math.nan]])
        with pytest.raises(NotUnimodularError, match="not all finite"):
            solve(np.eye(2), xf)


class TestVerify:
    def test_reference_solution_residual(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert verify_solution(sol, xi, xf) <= 1e-6

    def test_trivial_solution_residual(self):
        sol = solve(np.eye(2), exp2(A1))
        assert verify_solution(sol, np.eye(2), exp2(A1)) <= 1e-10

    def test_sensitive_to_parameter_error(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        wrong = SynthesisSolution(c=sol.c + 1e-3, t_f=sol.t_f, P=sol.P,
                                  K=sol.K, residual=sol.residual)
        assert verify_solution(wrong, xi, xf) > 1e-4


class TestFanOrdering:
    @pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 2.9, 3.0, 3.1, 5.0, 10.0])
    def test_monotone_fan(self, r):
        assert check_fan_monotone(r, 96) == 0.0

    def test_needs_exterior_radius(self):
        with pytest.raises(UnreachableError):
            check_fan_monotone(0.9)
