"""The float cores of the group layer against their wrappers and numpy.

Each public 2x2 function reads its array's entries once, runs a private core
on the row-major tuple (a, b, c, d) and builds one result array; the
wrappers must equal their cores exactly.  `solve` runs the cores'
operations inline, in one frame, so it must equal their composition bit for
bit; it is also compared with a composition of the same steps in numpy
matrix products, with an exponential that does not use the closed form.
"""

import math

import numpy as np

from sl2geo import (C_LANDING, CutLocusClass, QuotientPoint, SynthesisSolution,
                    classify_cut_locus, distance_to_class, exp2, from_coords,
                    landing_time, lift, lift_with_direction, project,
                    recover_rotation, rotation, s_int, solve, synthesis)
from sl2geo._kernels import (_A2_ENTRIES, _adj, _align, _check_unimodular,
                             _direction, _exp2, _lift_with_direction, _mul,
                             _project, _recover_rotation, coshc, sinhc)
from sl2geo.algebra import _entries, _matrix
from sl2geo.errors import (GeometryError, NoRootError, NotUnimodularError,
                           StartPointError)
from sl2geo.tolerances import MATCH_TOL, ROTATION_FLOOR, SYNTH_TOL
from sl2geo.types import DistanceResult

from conftest import random_sl2, strata_targets


def _traceless(rng, spread=1.5):
    return from_coords(rng.normal(0.0, spread, 3))


def _exact(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.all(a == b))


def test_exp2_wrapper_equals_core(rng):
    for _ in range(200):
        m = _traceless(rng)
        assert _exact(exp2(m), _matrix(_exp2(_entries(m))))


def test_exp2_matches_separate_kernels(rng):
    # The closed form with coshc and sinhc called one at a time, as the
    # array version computed it: the pair kernel changes no bit.
    for spread in (1e-5, 0.1, 1.5, 30.0):
        for _ in range(100):
            m = _traceless(rng, spread)
            a, b, c, d = (float(v) for v in m.ravel())
            z = -(a * d - b * c)
            ref = np.array([[coshc(z) + sinhc(z) * a, sinhc(z) * b],
                            [sinhc(z) * c, coshc(z) + sinhc(z) * d]])
            assert _exact(exp2(m), ref)


def test_lift_wrappers_equal_core(rng):
    for _ in range(200):
        c = rng.uniform(-2.5, 2.5)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.0, 10.0)
        p = _matrix(_direction(phi))
        core = _matrix(_lift_with_direction(c, _entries(p), t))
        assert _exact(lift_with_direction(c, p, t), core)
        assert _exact(lift(c, phi, t), core)


def test_project_wrapper_equals_core(rng):
    for _ in range(200):
        x = random_sl2(rng)
        assert project(x) == QuotientPoint(*_project(_entries(x)))


def test_recover_rotation_wrapper_equals_core(rng):
    for _ in range(200):
        x = random_sl2(rng)
        k = rotation(rng.uniform(-math.pi, math.pi))
        y = k @ x @ k.T
        rec = recover_rotation(x, y)
        core, unique = _recover_rotation(_entries(x), _entries(y), MATCH_TOL)
        assert _exact(rec.matrix, _matrix(core))
        assert rec.unique == unique


def test_recover_rotation_identity_on_circle():
    rec = recover_rotation(rotation(0.3), rotation(0.3))
    assert _exact(rec.matrix, np.eye(2))
    assert not rec.unique


# A numpy composition of solve's steps: matrix products through `@`, the
# Frobenius norm through numpy, and the exponential by scaling and squaring
# a Taylor polynomial instead of the closed form.  Scaling to entries of at
# most 1/2 keeps the degree-17 truncation below 1e-21 and the squarings few,
# each of which doubles the rounding: the landing lifts' symmetric parts then
# stay at rounding level (<= 1.3e-15), below ROTATION_FLOOR, as the closed
# form's do.

def _expm(m):
    n = max(0, math.ceil(math.log2(max(float(np.abs(m).max()), 1e-300)))) + 1
    a = m / 2.0 ** n
    term, out = np.eye(2), np.eye(2)
    for k in range(1, 18):
        term = term @ a / k
        out = out + term
    for _ in range(n):
        out = out @ out
    return out


def _lift_ref(c, p, t):
    a0 = from_coords((1.0, 0.0, 0.0))
    return _expm((c * a0 + p) * t) @ _expm(-c * t * a0)


def _sym(x):
    return 0.5 * (x[0, 0] - x[1, 1]), 0.5 * (x[0, 1] + x[1, 0])


def _reference_solve(xi, xf):
    adj = np.array([[xi[1, 1], -xi[0, 1]], [-xi[1, 0], xi[0, 0]]])
    x_hat = xf @ adj
    p = QuotientPoint(0.5 * (x_hat[0, 0] + x_hat[1, 1]),
                      0.5 * (x_hat[0, 1] - x_hat[1, 0]))
    dist = distance_to_class(p)
    a2 = from_coords((0.0, 0.0, 1.0))
    y_f = _lift_ref(dist.c, a2, dist.t_f)
    m1, k1 = _sym(y_f)
    m2, k2 = _sym(x_hat)
    if m1 * m1 + k1 * k1 <= ROTATION_FLOOR * ROTATION_FLOOR:
        k = np.eye(2)
    else:
        theta = 0.5 * math.atan2(k1 * m2 - m1 * k2, m1 * m2 + k1 * k2)
        k = np.array([[math.cos(theta), math.sin(theta)],
                      [-math.sin(theta), math.cos(theta)]])
    direction = k @ a2 @ k.T
    recon = _lift_ref(dist.c, direction, dist.t_f)
    return dist, direction, k, float(np.linalg.norm(recon - x_hat)), x_hat


def _generated_pairs(rng, n=200):
    # Generate-and-invert pairs: c in +-[0.05, 2.5], s before the horizon.
    for _ in range(n):
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.5)
        phi = rng.uniform(-math.pi, math.pi)
        s = min(rng.uniform(0.05, 0.95) * s_int(c), 12.0)
        xi = random_sl2(rng)
        yield xi, lift(c, phi, 2.0 * s) @ xi


def _boundary_pairs():
    # Cut-locus targets (landing on the circle, crossing the negative axis)
    # and positive-axis targets, reached from the identity, with their class.
    for c in (C_LANDING, 1.3, 1.5, 2.0, 2.4):
        yield (np.eye(2), lift(c, 0.7, 2.0 * landing_time(c)),
               CutLocusClass.SINGULAR_CIRCLE)
    for c in (0.3, 0.8, 1.0, 1.1):
        yield (np.eye(2), lift(c, -1.2, 2.0 * s_int(c)),
               CutLocusClass.NEGATIVE_AXIS_SEGMENT)
    for t in (0.1, 1.0, 5.0, 20.0):
        yield np.eye(2), lift(0.0, 0.4, t), CutLocusClass.REGULAR


def test_boundary_pairs_are_on_the_strata():
    for _, xf, expected in _boundary_pairs():
        assert classify_cut_locus(xf) is expected


def test_solve_matches_numpy_composition(rng):
    pairs = list(_generated_pairs(rng)) + [p[:2] for p in _boundary_pairs()]
    for xi, xf in pairs:
        sol = solve(xi, xf)
        dist, direction, k, residual, x_hat = _reference_solve(xi, xf)
        assert abs(sol.c - dist.c) <= 1e-12 * max(1.0, abs(dist.c))
        assert abs(sol.t_f - dist.t_f) <= 1e-12 * max(1.0, dist.t_f)
        assert sol.on_cut_locus == dist.on_cut_locus
        assert np.max(np.abs(sol.P - direction)) <= 1e-12
        assert np.max(np.abs(sol.K - k)) <= 1e-12
        bound = 1e-9 * max(1.0, float(np.linalg.norm(x_hat)))
        assert sol.residual <= bound
        assert residual <= bound


# The reference for solve: the composition of the cores whose operations it
# runs inline, _align on the A2 lift's closed-form symmetric part
# sqrt(r^2 - 1) (cos cs, sin cs) and one _lift_with_direction, checked as
# solve checks it.

def _composed_solve(xi, xf):
    xi = _entries(xi)
    _check_unimodular(xi)
    x_hat = _mul(_entries(xf), _adj(xi))
    px, py = _project(x_hat)
    m, k = 0.5 * (x_hat[0] - x_hat[3]), 0.5 * (x_hat[1] + x_hat[2])
    radial = math.hypot(m, k)
    dist = synthesis._distance(px, py, radial)
    cs = dist.c * dist.s
    rot, _ = _align(radial * math.cos(cs), radial * math.sin(cs), m, k)
    direction = _mul(_mul(rot, _A2_ENTRIES), (rot[0], rot[2], rot[1], rot[3]))
    y_f = _lift_with_direction(dist.c, direction, dist.t_f)
    _check_unimodular(y_f)
    residual = math.dist(y_f, x_hat)
    if residual > SYNTH_TOL * max(1.0, math.hypot(*x_hat)):
        raise NoRootError(f"endpoint residual {residual} exceeds {SYNTH_TOL}")
    return SynthesisSolution(dist.c, dist.t_f, _matrix(direction), _matrix(rot),
                             residual, dist.on_cut_locus)


def _outcome(fn, *args):
    # The answer's bits (float.hex tells -0.0 from 0.0), or the error's type
    # and message.
    try:
        sol = fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)
    return (sol.c.hex(), sol.t_f.hex(), sol.P.tobytes(), sol.K.tobytes(),
            sol.residual.hex(), sol.on_cut_locus)


def _near_rotations(rng, n=300):
    # Exact near-rotations of the three families, |m| <= ROTATION_FLOOR.
    for m in rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, -14.0, n):
        m = float(m)
        yield np.array([[m, -1.0], [1.0, -m]])
        yield np.array([[m, 1.0], [-1.0, -m]])
        yield np.array([[-1.0, m], [m, -1.0]])


def test_solve_bit_identical_to_composed_cores(rng):
    eye = np.eye(2)
    pairs = list(_generated_pairs(rng, 300))
    pairs += [(eye, xm) for _, _, _, xm in strata_targets(
        np.random.default_rng(27), 1000, ("axis", "circle", "r3", "overlap+1", "overlap-1"))
        if xm is not None]
    pairs += [(eye, xm) for xm in _near_rotations(np.random.default_rng(28))]
    pairs += [(eye, np.diag([1e160, 1e-160]))]
    solved = 0
    for xi, xf in pairs:
        expected = _outcome(_composed_solve, xi, xf)
        assert _outcome(solve, xi, xf) == expected, (xi, xf)
        solved += expected[0] is not StartPointError
    assert solved >= 0.8 * len(pairs)  # mostly answers, not rejections


def test_solve_errors_match_composed_cores(monkeypatch):
    eye, xf = np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]])
    cases = [(NotUnimodularError, 2.0 * eye, xf), (NotUnimodularError, eye, 2.0 * xf),
             (StartPointError, xf, xf)]
    for error, xi, xf_ in cases:
        expected = _outcome(_composed_solve, xi, xf_)
        assert expected[0] is error
        assert _outcome(solve, xi, xf_) == expected
    # A planar answer for the wrong class: its lift misses X_hat, which the
    # endpoint residual reports as an internal inconsistency.
    monkeypatch.setattr(synthesis, "_distance",
                        lambda x, y, radial: DistanceResult(3.0, 0.5, 1.5, False))
    expected = _outcome(_composed_solve, eye, xf)
    assert expected[0] is NoRootError
    assert _outcome(solve, eye, xf) == expected
