import math

import numpy as np
import pytest

from sl2geo import (c_of_omega, landing_match_error, reachable_boundary,
                    su2_landing_point, su2_landing_time, su2_planar_geodesic)
from sl2geo._kernels import coshc, sinhc
from sl2geo.errors import BadGridError, NonFiniteError
from sl2geo.figures import FIG3_OMEGAS
from sl2geo.su2 import su2_curve

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


class TestCurve:
    @pytest.mark.parametrize("omega", [0.0, 1e-9, 0.5, -0.5, 1.0, -2.0, 4.0, -4.0, 1e6])
    def test_equals_su2_planar_geodesic_per_point(self, omega):
        for s_max, n in ((su2_landing_time(omega), 400), (2.5, 9)):
            # == on floats: the grid loop is su2_planar_geodesic, bit for bit.
            assert su2_curve(omega, s_max, n) == [
                v for i in range(n)
                for v in su2_planar_geodesic(omega, s_max * i / (n - 1))]

    @pytest.mark.parametrize("omega", FIG3_OMEGAS)
    def test_mirror_is_exact_reflection(self, omega):
        # Figure 3 draws the -omega curve as the reflection of the omega one.
        s_max = su2_landing_time(omega)
        assert su2_curve(-omega, s_max, 400) == [
            -v if i % 2 else v for i, v in enumerate(su2_curve(omega, s_max, 400))]

    @pytest.mark.parametrize("omega, s", [
        (1e308, 10.0),    # omega s and mu s overflow
        (1e200, 1e200),
        (-1e200, 1e200),
    ])
    def test_overflow_raises(self, omega, s):
        with pytest.raises(NonFiniteError, match="overflows the geodesic"):
            su2_planar_geodesic(omega, s)
        with pytest.raises(NonFiniteError, match="overflows the geodesic"):
            su2_curve(omega, s, 3)

    @pytest.mark.parametrize("omega, s_max, n", [
        (0.5, 1.0, 1),
        (0.5, 1.0, 0),
        (0.5, -1.0, 3),
        (0.5, 0.0, 3),
        (0.5, math.nan, 3),
        (0.5, math.inf, 3),
        (0.5, 1e308, 3),  # s_max (n - 1) overflows
        (1e300, 0.0, 3),
    ])
    def test_bad_grid(self, omega, s_max, n):
        with pytest.raises(BadGridError):
            su2_curve(omega, s_max, n)


class TestPlanarGeodesic:
    def test_zero_parameter_runs_along_axis(self):
        for s in np.linspace(0.0, math.pi, 20):
            x, y = su2_planar_geodesic(0.0, float(s))
            assert x == pytest.approx(math.cos(s), abs=1e-14)
            assert y == pytest.approx(0.0, abs=1e-14)
        # traverses from (1, 0) to (-1, 0)
        assert su2_planar_geodesic(0.0, math.pi)[0] == pytest.approx(-1.0, abs=1e-14)

    def test_starts_at_one_zero(self, rng):
        for omega in rng.uniform(-6.0, 6.0, 20):
            assert su2_planar_geodesic(float(omega), 0.0) == (1.0, 0.0)

    @pytest.mark.parametrize("omega, s", [(1e160, 1e-200), (-1e300, 1e-310), (1e300, 0.0)])
    def test_huge_omega_point(self, omega, s):
        # Both angles mu s and omega s are tiny: the point is (1, 0).
        assert su2_planar_geodesic(omega, s) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_lands_on_circle(self, rng):
        for omega in rng.uniform(-6.0, 6.0, 20):
            x, y = su2_planar_geodesic(float(omega), su2_landing_time(float(omega)))
            assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
            lx, ly = su2_landing_point(float(omega))
            assert (x, y) == pytest.approx((lx, ly), abs=1e-12)

    def test_stays_inside_disc(self, rng):
        for _ in range(200):
            omega = rng.uniform(-8.0, 8.0)
            s = rng.uniform(0.0, math.pi)
            x, y = su2_planar_geodesic(omega, s)
            assert x * x + y * y <= 1.0 + 1e-12

    def test_reflection_symmetry(self, rng):
        for _ in range(50):
            omega = rng.uniform(-5.0, 5.0)
            s = rng.uniform(0.0, 3.0)
            x1, y1 = su2_planar_geodesic(omega, s)
            x2, y2 = su2_planar_geodesic(-omega, s)
            assert x2 == pytest.approx(x1, abs=1e-13)
            assert y2 == pytest.approx(-y1, abs=1e-13)

    def test_matches_shared_kernel_route(self, rng):
        # The direct trigonometric formula against the same point computed
        # through the analytic continuation of the planar-family kernel:
        # rate omega and z = -(1 + omega^2) s^2.
        for _ in range(100):
            omega = rng.uniform(-5.0, 5.0)
            s = rng.uniform(0.0, math.pi)
            z = -(1.0 + omega * omega) * s * s
            k1, k2 = coshc(z), omega * s * sinhc(z)
            cos_o, sin_o = math.cos(omega * s), math.sin(omega * s)
            kernel = (k1 * cos_o + k2 * sin_o, k1 * sin_o - k2 * cos_o)
            assert su2_planar_geodesic(omega, s) == pytest.approx(kernel, abs=1e-9)


class TestParameterBridge:
    def test_value_at_zero(self):
        assert c_of_omega(0.0) == pytest.approx(-TWO_OVER_SQRT3, abs=1e-12)

    def test_branch_ranges(self):
        for omega in (0.1, 1.0, 4.0):
            assert c_of_omega(omega) < -TWO_OVER_SQRT3 + 1e-12
        for omega in (-0.1, -1.0, -4.0):
            assert c_of_omega(omega) > TWO_OVER_SQRT3 - 1e-12

    def test_monotone_decreasing_per_branch(self):
        grid = np.linspace(0.0, 8.0, 200)
        values = [c_of_omega(float(w)) for w in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        grid = np.linspace(-8.0, -1e-9, 200)
        values = [c_of_omega(float(w)) for w in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_diverges_for_large_omega(self):
        assert c_of_omega(1.0e6) < -1.0e3
        assert c_of_omega(-1.0e6) > 1.0e3

    def test_landing_match(self):
        assert landing_match_error(0.0) <= 1e-12  # both land at (-1, 0)
        assert landing_match_error(1.0) <= 1e-9
        assert landing_match_error(-2.5) <= 1e-9
        for omega in np.linspace(-5.0, 5.0, 100):
            assert landing_match_error(float(omega)) <= 1e-9

    @pytest.mark.parametrize("omega", [1e-3, -0.7, 6.1e7, -1e10, 1e100, 1e150, -1e150])
    def test_direct_formulas_up_to_huge_param(self, omega):
        # At and below HUGE_PARAM every sqrt(1 + omega^2) is the direct one.
        r = math.sqrt(omega * omega + 1.0)
        a = abs(omega)
        c = (2.0 * r - a) * math.sqrt((r + a) / (3.0 * r - a))
        assert c_of_omega(omega) == (-c if omega >= 0.0 else c)
        assert su2_landing_time(omega) == math.pi / r
        angle = omega * math.pi / r
        assert su2_landing_point(omega) == (-math.cos(angle), -math.sin(angle))

    @pytest.mark.parametrize("omega", [1e160, -1e300, 1.7e308])
    def test_huge_omega(self, omega):
        # sqrt(1 + omega^2) overflows from |omega| ~ 1.34e154, where c(omega)
        # = -omega and both geodesics land at (1, 0) to double precision.
        assert c_of_omega(omega) == -omega
        assert su2_landing_time(omega) == math.pi / abs(omega)
        assert su2_landing_point(omega)[0] == 1.0
        assert landing_match_error(omega) <= 1e-15

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_landing_point(self, omega):
        with pytest.raises(NonFiniteError, match="is not finite"):
            su2_landing_point(omega)


class TestReachableBoundary:
    def test_small_time_stays_near_start(self):
        pts = reachable_boundary(0.05, 64)
        for x, y in pts:
            assert math.hypot(x - 1.0, y) < 0.2

    def test_points_inside_closed_disc(self):
        for s in (0.3, 1.0, 2.0, 3.5):
            for x, y in reachable_boundary(s, 128):
                assert x * x + y * y <= 1.0 + 1e-9

    def test_landed_parameters_clip_to_circle(self):
        # At s >= pi every geodesic has landed: all samples on the circle.
        for x, y in reachable_boundary(math.pi, 64):
            assert x * x + y * y == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
    def test_equals_clipped_geodesic_per_point(self, s):
        # == on floats: each point is the geodesic at min(s, landing time).
        n = 32
        expected = []
        for i in range(n):
            omega = math.tan(-0.5 * math.pi + math.pi * (i + 0.5) / n)
            expected.append(su2_planar_geodesic(omega, min(s, su2_landing_time(omega))))
        assert reachable_boundary(s, n) == expected

    def test_bad_grid(self):
        with pytest.raises(BadGridError):
            reachable_boundary(1.0, 1)
        with pytest.raises(BadGridError):
            reachable_boundary(0.0, 16)
