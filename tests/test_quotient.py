import math

import numpy as np
import pytest

from sl2geo import (QuotientPoint, TangentVec2, basis, christoffel, exp2,
                    geodesic_ode_rhs, landing_time, ode_residual, project,
                    pushforward_frame, quotient_metric, recover_rotation,
                    rotation, s_int)
from sl2geo.errors import (ClassMismatchError, NotUnimodularError,
                           SingularPointError)

from conftest import random_sl2

A0, A1, A2 = basis()


class TestProject:
    def test_identity(self):
        assert project(np.eye(2)) == QuotientPoint(1.0, 0.0)

    def test_reference_class_point(self):
        p = project(np.array([[-1.0, 2.0], [-1.0, 1.0]]))
        assert p == QuotientPoint(0.0, 1.5)

    def test_symmetric_matrix_lands_on_axis(self):
        p = project(exp2(A1))
        assert p.x == pytest.approx(math.cosh(0.5), abs=1e-15)
        assert p.y == 0.0

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            project(np.array([[1.0, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # A NaN or infinite determinant slips past the |det - 1| comparison.
        for i in range(2):
            for j in range(2):
                x = np.eye(2)
                x[i, j] = bad
                with pytest.raises(NotUnimodularError, match="not all finite"):
                    project(x)

    def test_conjugation_invariance(self, rng):
        for _ in range(200):
            x = random_sl2(rng)
            k = rotation(rng.uniform(-math.pi, math.pi))
            p1, p2 = project(x), project(k @ x @ k.T)
            scale = max(1.0, abs(p1.x), abs(p1.y))
            assert math.hypot(p1.x - p2.x, p1.y - p2.y) < 1e-12 * scale

    def test_inverse_reflects_about_axis(self, rng):
        for _ in range(100):
            x = random_sl2(rng)
            inv = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
            p, q = project(x), project(inv)
            assert q.x == pytest.approx(p.x, abs=1e-12)
            assert q.y == pytest.approx(-p.y, abs=1e-12)

    def test_axis_classes_have_symmetric_representative(self, rng):
        # x >= 1 and x <= -1 classes both contain [[x, b], [b, x]] with
        # b = sqrt(x^2-1); check it projects back and is unimodular.
        for x0 in (1.5, 4.0, -1.0, -2.5):
            b = math.sqrt(x0 * x0 - 1.0)
            rep = np.array([[x0, b], [b, x0]])
            p = project(rep)
            assert p == QuotientPoint(x0, 0.0)

    def test_stratum_tag(self):
        assert project(np.eye(2)).stratum == "singular"
        assert project(np.array([[2.0, 1.0], [1.0, 1.0]])).stratum == "regular"


class TestRecoverRotation:
    def test_same_matrix_gives_identity(self):
        x = np.array([[2.0, 1.0], [1.0, 1.0]])
        rec = recover_rotation(x, x)
        assert rec.unique
        assert np.allclose(rec.matrix, np.eye(2), atol=1e-15)

    def test_generate_and_invert(self, rng):
        for _ in range(200):
            x = random_sl2(rng)
            if project(x).radius_sq < 1.0 + 1e-6:
                continue
            k = rotation(rng.uniform(-math.pi, math.pi))
            y = k @ x @ k.T
            rec = recover_rotation(x, y)
            assert rec.unique
            assert np.allclose(rec.matrix @ x @ rec.matrix.T, y, atol=1e-9)
            # Determined up to overall sign of the rotation.
            assert (np.allclose(rec.matrix, k, atol=1e-9)
                    or np.allclose(rec.matrix, -k, atol=1e-9))

    def test_angle_convention_range(self, rng):
        for _ in range(100):
            x = random_sl2(rng)
            if project(x).radius_sq < 1.0 + 1e-6:
                continue
            k = rotation(rng.uniform(-math.pi, math.pi))
            rec = recover_rotation(x, k @ x @ k.T)
            # K = [[cos t, sin t], [-sin t, cos t]] with t in (-pi/2, pi/2].
            assert rec.matrix[0, 0] >= -1e-12

    def test_reference_pair(self):
        # Displayed matrices of the worked endpoint example.  The rounded
        # entries leave det = 1 + 7e-6, so rescale onto SL(2) first; the
        # recovered rotation then aligns the pair to ~1e-4.  The printed
        # reference K is itself only consistent with these matrices to
        # ~5e-4, which sets the comparison tolerance.
        y_f = np.array([[-1.04802976, 1.11041756], [-1.8896115, 1.04792621]])
        y_f /= math.sqrt(np.linalg.det(y_f))
        x_hat = np.array([[-1.0, 2.0], [-1.0, 1.0]])
        rec = recover_rotation(y_f, x_hat, tol=1e-3)
        assert np.max(np.abs(rec.matrix @ y_f @ rec.matrix.T - x_hat)) < 2e-4
        k_ref = np.array([[0.9170700563, 0.39872611144],
                          [-0.39872611144, 0.9170700563]])
        assert np.max(np.abs(rec.matrix - k_ref)) < 5e-4

    def test_class_mismatch_raises(self):
        with pytest.raises(ClassMismatchError):
            recover_rotation(np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_singular_class_flagged_non_unique(self):
        k = rotation(0.3)
        rec = recover_rotation(k, k)
        assert not rec.unique
        assert np.array_equal(rec.matrix, np.eye(2))


class TestPushforward:
    def test_degenerates_at_identity(self):
        f1, f2 = pushforward_frame(np.eye(2))
        assert f1 == TangentVec2(0.0, 0.0)
        assert f2 == TangentVec2(0.0, 0.0)

    def test_boost_point_values(self):
        f1, f2 = pushforward_frame(exp2(A1))
        half_sinh = 0.5 * math.sinh(0.5)
        assert f1 == pytest.approx((half_sinh, 0.0), abs=1e-15)
        assert f2 == pytest.approx((0.0, half_sinh), abs=1e-15)

    def test_equal_diagonal_symmetric_gives_horizontal_f1(self, rng):
        # For X = [[a, b], [b, a]] the vertical component (d - a)/4 of the
        # first pushforward vanishes.  (Symmetry alone is not enough: the
        # diagonal matrix exp2(A2) has d != a and a nonzero dy.)
        for _ in range(20):
            t = rng.uniform(-2.0, 2.0)
            f1, f2 = pushforward_frame(exp2(t * A1))
            assert f1.dy == pytest.approx(0.0, abs=1e-14)
            assert f2.dx == pytest.approx(0.0, abs=1e-14)

    def test_orthonormal_under_quotient_metric(self, rng):
        checked = 0
        while checked < 1000:
            x = random_sl2(rng)
            p = project(x)
            if p.radius_sq <= 1.0 + 1e-6:
                continue
            checked += 1
            f1, f2 = pushforward_frame(x)
            w = quotient_metric(p)[0, 0]
            gram = np.array([
                [w * (f1.dx ** 2 + f1.dy ** 2), w * (f1.dx * f2.dx + f1.dy * f2.dy)],
                [w * (f2.dx * f1.dx + f2.dy * f1.dy), w * (f2.dx ** 2 + f2.dy ** 2)],
            ])
            assert np.max(np.abs(gram - np.eye(2))) < 1e-9


class TestQuotientMetric:
    def test_values(self):
        assert np.allclose(quotient_metric(QuotientPoint(math.sqrt(5.0), 0.0)),
                           np.eye(2), atol=1e-15)
        assert np.allclose(quotient_metric(QuotientPoint(1.0, 1.0)),
                           4.0 * np.eye(2), atol=1e-15)

    def test_rejects_singular_point(self):
        with pytest.raises(SingularPointError):
            quotient_metric(QuotientPoint(1.0, 0.0))


class TestChristoffel:
    def test_axis_point(self):
        gamma = christoffel(QuotientPoint(math.sqrt(2.0), 0.0))
        assert gamma[0, 0, 0] == pytest.approx(-math.sqrt(2.0), abs=1e-14)
        assert gamma[1, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_vertical_point(self):
        gamma = christoffel(QuotientPoint(0.0, math.sqrt(2.0)))
        assert gamma[1, 1, 1] == pytest.approx(-math.sqrt(2.0), abs=1e-14)
        assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_in_lower_indices(self, rng):
        for _ in range(50):
            p = QuotientPoint(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if p.radius_sq <= 1.0 + 1e-6:
                continue
            gamma = christoffel(p)
            assert np.allclose(gamma, np.swapaxes(gamma, 1, 2), atol=0.0)

    def test_full_value_table(self):
        p = QuotientPoint(1.3, -0.7)
        denominator = p.x ** 2 + p.y ** 2 - 1.0
        u, v = p.x / denominator, p.y / denominator
        gamma = christoffel(p)
        expected = np.array([[[-u, -v], [-v, u]], [[v, -u], [-u, -v]]])
        assert np.allclose(gamma, expected, atol=1e-14)


class TestGeodesicOde:
    def test_axis_acceleration(self):
        _, acc = geodesic_ode_rhs(QuotientPoint(2.0, 0.0), TangentVec2(1.0, 0.0))
        assert acc == pytest.approx((2.0 / 3.0, 0.0), abs=1e-14)

    def test_axis_acceleration_vertical_velocity(self):
        _, acc = geodesic_ode_rhs(QuotientPoint(2.0, 0.0), TangentVec2(0.0, 1.0))
        assert acc == pytest.approx((-2.0 / 3.0, 0.0), abs=1e-14)

    def test_matches_explicit_formula(self, rng):
        # Independent route: the explicit right-hand side written from the
        # conformal metric, against the Christoffel contraction.
        for _ in range(100):
            p = QuotientPoint(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if p.radius_sq <= 1.0 + 1e-3:
                continue
            v = TangentVec2(rng.normal(), rng.normal())
            d = p.x ** 2 + p.y ** 2 - 1.0
            ax = (p.x * (v.dx ** 2 - v.dy ** 2) + 2.0 * p.y * v.dx * v.dy) / d
            ay = (p.y * (v.dy ** 2 - v.dx ** 2) + 2.0 * p.x * v.dx * v.dy) / d
            vel, acc = geodesic_ode_rhs(p, v)
            assert vel == v
            assert acc.dx == pytest.approx(ax, rel=1e-12, abs=1e-12)
            assert acc.dy == pytest.approx(ay, rel=1e-12, abs=1e-12)

    def test_rejects_singular_point(self):
        with pytest.raises(SingularPointError):
            geodesic_ode_rhs(QuotientPoint(1.0, 0.0), TangentVec2(1.0, 0.0))


class TestOdeResidual:
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.2])
    def test_closed_form_solves_equation(self, c):
        hi = s_int(c)
        if c > 1.15:  # landing families end on the circle; stay clear of it
            hi = landing_time(c) * (1.0 - 1e-3)
        grid = np.linspace(0.1, hi, 100)
        assert ode_residual(c, grid) <= 1e-8
