import math
import warnings

import numpy as np
import pytest

from sl2geo import (Factorization, StructureKind, assemble,
                    aut_matrix_from_group, basis, classify_structure,
                    factorize, is_lie_automorphism, is_so12, lorentz_boost,
                    lorentz_rotation, realize, rotation)
from sl2geo.automorphisms import I12
from sl2geo.errors import (DependentFrameError, NotInGroupError,
                           NotUnitDeterminantError, SingularMatrixError)
from sl2geo.tolerances import ROUNDING_TOL

from conftest import random_sl2

A0, A1, A2 = basis()

I1 = np.diag([-1.0, -1.0, 1.0])
I2 = np.diag([-1.0, 1.0, -1.0])


def random_factorization(rng):
    return Factorization(rng.uniform(-math.pi, math.pi),
                         int(rng.integers(0, 3)),
                         rng.uniform(-2.5, 2.5),
                         rng.uniform(-math.pi, math.pi))


class TestIsSo12:
    def test_identity(self):
        assert is_so12(np.eye(3))

    def test_rotation_generator(self):
        assert is_so12(lorentz_rotation(0.7))

    def test_reflection_rejected_by_determinant(self):
        assert not is_so12(np.diag([-1.0, 1.0, 1.0]))

    def test_wrong_shape_rejected(self):
        assert not is_so12(np.eye(2))

    def test_boost_and_involutions(self):
        assert is_so12(lorentz_boost(-1.2))
        assert is_so12(I1)
        assert is_so12(I2)


class TestAutMatrixFromGroup:
    def test_rotation_gives_plane_rotation(self):
        theta = 0.7
        assert np.allclose(aut_matrix_from_group(rotation(theta / 2.0)),
                           lorentz_rotation(theta), atol=1e-14)

    def test_involutions(self):
        # diag(1, -1) flips A0 and A1; the swap flips A0 and A2.  (These are
        # the two determinant -1 generator realizations.)
        assert np.allclose(aut_matrix_from_group(np.diag([1.0, -1.0])), I1,
                           atol=1e-15)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(aut_matrix_from_group(swap), I2, atol=1e-15)

    def test_boost_gives_lorentz_boost(self):
        z = 1.3
        k = np.array([[math.cosh(z / 2.0), math.sinh(z / 2.0)],
                      [math.sinh(z / 2.0), math.cosh(z / 2.0)]])
        assert np.allclose(aut_matrix_from_group(k), lorentz_boost(z), atol=1e-13)

    def test_image_in_group(self, rng):
        for _ in range(50):
            m = aut_matrix_from_group(random_sl2(rng))
            assert is_so12(m, tol=1e-10)

    def test_homomorphism(self, rng):
        for _ in range(50):
            k1, k2 = random_sl2(rng), random_sl2(rng)
            product = aut_matrix_from_group(k1 @ k2)
            composed = aut_matrix_from_group(k1) @ aut_matrix_from_group(k2)
            assert np.allclose(product, composed, atol=1e-10)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(NotUnitDeterminantError):
            aut_matrix_from_group(2.0 * np.eye(2))


class TestIsLieAutomorphism:
    def test_rotation_accepted(self):
        assert is_lie_automorphism(lorentz_rotation(1.1))

    def test_scaling_rejected(self):
        assert not is_lie_automorphism(np.diag([1.0, 2.0, 1.0]))

    def test_determinant_minus_one_rejected_with_is_so12(self):
        # diag(1, 1, -1) preserves the form, so only the determinant rejects it.
        m = np.diag([1.0, 1.0, -1.0])
        assert not is_so12(m)
        assert not is_lie_automorphism(m)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            is_lie_automorphism(np.zeros((3, 3)))

    def test_agrees_with_lorentz_membership(self, rng):
        agree = 0
        for _ in range(500):
            kind = rng.integers(0, 3)
            if kind == 0:
                m = assemble(random_factorization(rng))
            elif kind == 1:
                m = assemble(random_factorization(rng))
                m = m + rng.normal(0.0, 1e-3, (3, 3))
            else:
                m = rng.normal(0.0, 1.0, (3, 3))
                if abs(np.linalg.det(m)) < 1e-6:
                    continue
            assert is_so12(m) == is_lie_automorphism(m)
            agree += 1
        assert agree > 450


class TestFactorize:
    def test_identity(self):
        assert factorize(np.eye(3)) == Factorization(0.0, 0, 0.0, 0.0)

    def test_pure_boost(self):
        f = factorize(lorentz_boost(1.3))
        assert f.branch == 0
        assert f.z == pytest.approx(1.3, abs=1e-12)
        assert np.allclose(assemble(f), lorentz_boost(1.3), atol=1e-12)

    def test_pure_involutions(self):
        for branch, mat in ((1, I1), (2, I2)):
            f = factorize(mat)
            assert np.allclose(assemble(f), mat, atol=1e-12)

    def test_round_trip_random_products(self, rng):
        for _ in range(200):
            m = assemble(random_factorization(rng))
            f = factorize(m)
            assert abs(f.theta1) <= math.pi + 1e-12
            assert abs(f.theta2) <= math.pi + 1e-12
            assert np.max(np.abs(assemble(f) - m)) <= 1e-10

    def test_rejects_non_members(self):
        with pytest.raises(NotInGroupError):
            factorize(np.diag([1.0, 2.0, 1.0]))


class TestRealize:
    def test_identity(self):
        assert np.allclose(realize(Factorization(0.0, 0, 0.0, 0.0)), np.eye(2),
                           atol=1e-15)

    def test_pure_rotation(self):
        theta = 0.9
        assert np.allclose(realize(Factorization(theta, 0, 0.0, 0.0)),
                           rotation(theta / 2.0), atol=1e-15)

    def test_generator_actions_reproduced(self):
        # The three generator families must be realized exactly.
        for theta in (-2.0, 0.3, 2.9):
            got = aut_matrix_from_group(realize(Factorization(theta, 0, 0.0, 0.0)))
            assert np.max(np.abs(got - lorentz_rotation(theta))) < 1e-12
        for z in (-1.7, 0.4, 2.2):
            got = aut_matrix_from_group(realize(Factorization(0.0, 0, z, 0.0)))
            assert np.max(np.abs(got - lorentz_boost(z))) < 1e-12
        got = aut_matrix_from_group(realize(Factorization(0.0, 1, 0.0, 0.0)))
        assert np.max(np.abs(got - I1)) < 1e-12
        got = aut_matrix_from_group(realize(Factorization(0.0, 2, 0.0, 0.0)))
        assert np.max(np.abs(got - I2)) < 1e-12

    def test_round_trip_through_group(self, rng):
        for _ in range(100):
            f = random_factorization(rng)
            m = assemble(f)
            realized = aut_matrix_from_group(realize(f))
            assert np.max(np.abs(realized - m)) <= 1e-9
            # and factorize . realize closes as well
            again = assemble(factorize(realized))
            assert np.max(np.abs(again - m)) <= 1e-9

    def test_determinant_sign_tracks_outer_coset(self, rng):
        for _ in range(50):
            f = random_factorization(rng)
            det = np.linalg.det(realize(f))
            expected = 1.0 if f.branch == 0 else -1.0
            assert det == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("branch", [-1, 3, 1.0])
    def test_bad_branch_rejected(self, branch):
        # assemble read branch -1 as _I_BRANCH[-1] and raised IndexError for
        # 3 and TypeError for 1.0, while realize took -1 and 3 as branch 0
        # and 1.0 as branch 1.
        f = Factorization(0.3, branch, 0.5, -0.2)
        for build in (assemble, realize):
            with pytest.raises(NotInGroupError, match=f"branch {branch} is not 0, 1 or 2"):
                build(f)


class TestClassifyStructure:
    def test_standard_horizontal_frame_elliptic(self):
        assert classify_structure((0, 1, 0), (0, 0, 1)) is StructureKind.ELLIPTIC

    def test_vertical_mixing_hyperbolic(self):
        assert classify_structure((1, 0, 0), (0, 1, 0)) is StructureKind.HYPERBOLIC

    def test_boosted_frames_stay_elliptic(self):
        for z in np.linspace(-3.0, 3.0, 13):
            h = lorentz_boost(float(z))
            assert classify_structure(h[:, 1], h[:, 2]) is StructureKind.ELLIPTIC

    def test_automorphic_images_stay_elliptic(self, rng):
        for _ in range(50):
            m = assemble(random_factorization(rng))
            assert classify_structure(m[:, 1], m[:, 2]) is StructureKind.ELLIPTIC

    def test_lightlike_plane_degenerate(self):
        assert classify_structure((1, 1, 0), (0, 0, 1)) is StructureKind.DEGENERATE

    def test_dependent_frame_raises(self):
        with pytest.raises(DependentFrameError):
            classify_structure((0, 1, 0), (0, 2, 0))


def _scaled_members(z_max, rng, per_z=8):
    # (f, assemble(f)) at |z| = 0, 1, ..., z_max, both signs of z.
    for z in range(z_max + 1):
        for _ in range(per_z):
            f = Factorization(rng.uniform(-math.pi, math.pi), int(rng.integers(0, 3)),
                              z * float(rng.choice((-1.0, 1.0))),
                              rng.uniform(-math.pi, math.pi))
            yield f, assemble(f)


class TestScale:
    """Each identity is checked at the scale of its operands, so the answer
    does not depend on the size of a frame or of a member."""

    def test_classify_structure_ignores_vector_scales(self, rng):
        frames = [((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                  ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
        for _ in range(20):
            m = assemble(Factorization(rng.uniform(-3.0, 3.0), 0, rng.uniform(-5.0, 5.0),
                                       rng.uniform(-3.0, 3.0)))
            frames.append((m[:, 1], m[:, 2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b1, b2 in frames:
                kind = classify_structure(b1, b2)
                for _ in range(10):
                    lam, mu = 10.0 ** rng.uniform(-300.0, 300.0, 2)
                    scaled = classify_structure(lam * np.asarray(b1), mu * np.asarray(b2))
                    assert scaled is kind, (b1, b2, lam, mu)
        assert [classify_structure(*frame) for frame in frames[:3]] == [
            StructureKind.ELLIPTIC, StructureKind.HYPERBOLIC, StructureKind.DEGENERATE]

    def test_members_accepted_up_to_z_12(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, m in _scaled_members(12, rng):
                assert is_so12(m), f
                assert is_lie_automorphism(m), f

    def test_realized_members_up_to_z_30(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, m in _scaled_members(30, rng, per_z=4):
                realized = aut_matrix_from_group(realize(f))
                assert np.max(np.abs(realized - m)) <= 1e-12 * np.sum(m * m), f

    def test_perturbed_members_refused_at_every_z(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, m in _scaled_members(30, rng, per_z=4):
                wrong = m * (1.0 + 1e-3 * rng.normal(0.0, 1.0, (3, 3)))
                assert not is_so12(wrong), f
                assert not is_lie_automorphism(wrong), f

    @pytest.mark.parametrize("z", range(13))
    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_column_scaled_members_refused(self, z, delta):
        # (H D)^T I12 (H D) = D I12 D exactly: scaling a column keeps the
        # cancellation, so the form is off by 2 delta only, not by delta |m|^2.
        m = lorentz_boost(float(z)) @ np.diag([1.0, 1.0, 1.0 + delta])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_so12(m)
            assert not is_lie_automorphism(m)
            with pytest.raises(NotInGroupError):
                factorize(m)

    @pytest.mark.parametrize("z", [6.0, 12.0, 16.0])
    @pytest.mark.parametrize("fraction", [0.5, 1.0, 2.0])
    def test_members_moved_along_smallest_singular_direction_refused(self, rng, z, fraction):
        # fraction 1 makes the member singular; the intertwining identity has
        # no constant term, so its 1/3 cap is checked here rather than proved.
        for _ in range(10):
            m = assemble(Factorization(rng.uniform(-3.0, 3.0), int(rng.integers(0, 3)), z,
                                       rng.uniform(-3.0, 3.0)))
            u, s, vt = np.linalg.svd(m)
            moved = m - fraction * s[2] * np.outer(u[:, 2], vt[2])
            assert not is_so12(moved)
            assert not is_lie_automorphism(moved)

    @pytest.mark.parametrize("a", [1e3, 5e5, 1e6, 1e8, 1e12])
    def test_singular_matrix_refused(self, a):
        # The form's error of this singular m is 1, within ROUNDING_TOL * sum(m^2)
        # from a ~ 1.7e7 on: only the 1/3 cap on that bound refuses it there.
        m = np.array([[a, a, 0.0], [a, a, 0.0], [0.0, 0.0, 1.0]])
        within = np.max(np.abs(m.T @ I12 @ m - I12)) <= ROUNDING_TOL * np.sum(m * m)
        assert within == (a >= 1e8)
        assert not is_so12(m)
        assert not is_lie_automorphism(m)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200])
    def test_tiny_matrix_is_no_automorphism(self, scale):
        # Only the zero matrix raises; a tiny one, whose sum(m^2) may
        # underflow, misses the intertwining identity.
        assert not is_lie_automorphism(scale * lorentz_boost(0.5))

    @pytest.mark.parametrize("k", [np.full((2, 2), 1e6),
                                   [[1e6, 1e6], [1e6, 1e6 + 1.1641532182693481e-10]]])
    def test_singular_huge_group_element_refused(self, k):
        # |K|^2 = 4e12: det 0 and det 1.2e-4 are not +-1 within the rounding
        # of det, ROUNDING_TOL * |K|^2 = 3.6e-3.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitDeterminantError, match="is not"):
                aut_matrix_from_group(k)
