"""The root solves checked against 40-digit mpmath solutions.

Each reference root comes from mp.findroot on the same closed-form equation,
seeded from the library's answer; only the root's accuracy is under test.
The first-root check of s_int bisects its own bracket instead, unseeded.
The SU(2) bridge c(omega) is checked against its unfactored closed form at
50 digits.
"""

import math
import random

import pytest

from sl2geo import (C_ORTHOGONAL, QuotientPoint, c_of_omega, distance_to_class,
                    landing_time, s_int, x_int)
from sl2geo.tolerances import ROOT_TOL

from conftest import near_circle_targets

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


def _coshc(z):
    return mp.cosh(mp.sqrt(z)) if z >= 0 else mp.cos(mp.sqrt(-z))


def _sinhc(z):
    if z == 0:
        return mp.mpf(1)
    if z > 0:
        return mp.sinh(mp.sqrt(z)) / mp.sqrt(z)
    return mp.sin(mp.sqrt(-z)) / mp.sqrt(-z)


def _planar(c, s):
    z = (1 - c * c) * s * s
    k1, k2 = _coshc(z), c * s * _sinhc(z)
    return (k1 * mp.cos(c * s) + k2 * mp.sin(c * s),
            k1 * mp.sin(c * s) - k2 * mp.cos(c * s))


_CROSSING_CS = [0.05, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1, C_ORTHOGONAL]


def _crossing_time(c, seed):
    # Root of sin(polar angle): y scaled to a bounded function, same root.
    cm = mp.mpf(c)
    return mp.findroot(lambda s: _planar(cm, s)[1] / mp.hypot(*_planar(cm, s)),
                       (seed * (1 - 1e-9), seed))


@pytest.mark.parametrize("c", _CROSSING_CS)
def test_s_int(c):
    got = s_int(c)
    ref = _crossing_time(c, got)
    assert abs(got - ref) <= 1e-15 * ref


_FIRST_ROOT_CS = [1e-300, 1e-8, 0.0045, 0.1, 0.2, 0.4, 0.7, 0.99, 1.0 - 1e-12, 1.0,
                  1.0 + 1e-12, 1.03, C_ORTHOGONAL, 1.12]


def _first_root(c):
    # The first root of y after pi/c, as s = (pi + theta)/c: on (0, pi/2)
    # for c <= 1 (there y/k1 = tau cos(theta) - sin(theta), tau = k2/k1 =
    # (c/w) tanh(w s)), on (0, pi) up to 2/sqrt(3); y > 0 at theta = 0 and
    # y < 0 at the end, and the interval is halved to its last digit.
    def y(theta):
        s = (mp.pi + theta) / c
        z = (1 - c * c) * s * s
        if z > 0:
            w = mp.sqrt(1 - c * c)
            return c / w * mp.tanh(w * s) * mp.cos(theta) - mp.sin(theta)
        return c * s * _sinhc(z) * mp.cos(theta) - _coshc(z) * mp.sin(theta)

    lo, hi = mp.mpf(0), mp.pi / 2 if c <= 1 else mp.pi
    assert y(lo) > 0 > y(hi)
    for _ in range(150):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if y(mid) > 0 else (lo, mid)
    return (mp.pi + lo) / c


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("c", _FIRST_ROOT_CS)
def test_s_int_is_the_first_root(c, sign):
    # Against a reference that never calls the library: the narrowed bracket
    # of |c| <= 1 (collapsed to rounding below ~0.2) and the one above.
    ref = _first_root(mp.mpf(c))
    got = s_int(sign * c)
    assert abs(got - ref) <= ROOT_TOL * max(1.0, ref)


@pytest.mark.parametrize("c", _CROSSING_CS)
def test_x_int(c):
    # |x| grows like exp(s) for small c, so rounding in s_int carries over
    # with a factor of about s_int(c) (63 at c = 0.05).
    ref = _planar(mp.mpf(c), _crossing_time(c, s_int(c)))[0]
    assert abs(x_int(c) - ref) <= 1e-14 * abs(ref)


def _regular_targets(n=60):
    rng = random.Random(20260601)
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(1.0001), math.log(60.0)))
        beta = rng.uniform(0.05, math.pi - 0.05)
        yield r * math.cos(beta), r * math.sin(beta)


def _planar_solve(x, y, res):
    # The (c, s) reaching (x, y), seeded from the library's answer.
    return mp.findroot(
        lambda c, s: [u - v for u, v in zip(_planar(c, s), (x, y))],
        (mp.mpf(res.c), mp.mpf(res.s)))


def test_distance_to_class_crossing_times():
    worst = 0.0
    for x, y in _regular_targets():
        res = distance_to_class(QuotientPoint(x, y))
        c, s = _planar_solve(x, y, res)
        worst = max(worst, float(abs(res.t_f - 2 * s) / (2 * s)))
    assert worst <= 1e-13


def test_distance_to_class_past_the_fan_junction():
    # Next to (1, 0), with r^2 - 1 = 1.4e-8 and y = 2.8e-20, the minimizer
    # has c = 5.27e-8 (50-digit solve), on the hyperbolic side of the fan's
    # junction c = 1.  When one coordinate u ran over the whole fan, pi -
    # delta, taken as pi - (rounded delta), had ~14 % relative error there,
    # and the gap's false sign change stopped the search at c = 1.0000000272.
    # c is ill-conditioned so close to (1, 0): it is checked loosely, the
    # planar residual tightly.
    x, y = 1.0000000067704442, 2.7654249046197205e-20
    res = distance_to_class(QuotientPoint(x, y))
    assert abs(res.c - 5.2651698514972917e-8) <= 1e-4 * 5.2651698514972917e-8
    px, py = _planar(mp.mpf(res.c), mp.mpf(res.s))
    assert mp.hypot(px - x, py - y) <= 1e-15 * mp.hypot(x, y)
    # A regular target whose search passes the junction: the false sign
    # change there put zeroin 1.7 % off in t_f.
    x, y = 1.4314005064733188, 1.9846771107579522
    res = distance_to_class(QuotientPoint(x, y))
    _, s = _planar_solve(x, y, res)
    assert abs(res.t_f - 2 * s) <= 1e-13 * 2 * s


@pytest.mark.parametrize("excess", [5e-10, 1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("beta", [1e-5, 0.05, 0.66, 1.27, 1.88, 2.49, 3.1])
def test_distance_to_class_landing_band(excess, beta):
    # Targets within SINGULAR_BAND outside the circle: the minimizer stops
    # short of the landing by about sqrt(r^2 - 1) in half-time.  The
    # reference root is the crossing before the landing, not the one after.
    r = math.sqrt(1.0 + excess)
    x, y = r * math.cos(beta), r * math.sin(beta)
    res = distance_to_class(QuotientPoint(x, y))
    c, s = _planar_solve(x, y, res)
    assert s < mp.pi / mp.sqrt(c * c - 1)
    assert abs(res.t_f - 2 * s) <= 1e-9 * max(1.0, res.t_f)
    assert abs(res.c - c) <= 1e-9 * abs(c)
    assert res.t_f < 2.0 * landing_time(res.c)


@pytest.mark.parametrize("omega", [0.0, 0.5, -0.5, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3,
                                   1e6, -1e6, 1e10, -1e10])
def test_c_of_omega(omega):
    # c^2 = (5w^2 + 4 - 4|w|r)/(4w^2 + 3 - 4|w|r), r = sqrt(w^2 + 1): numerator
    # and denominator each lose about 2 log10|w| digits to cancellation, 20
    # of the 50 at |w| = 1e10.
    with mpmath.workdps(50):
        w = abs(mp.mpf(omega))
        r = mp.sqrt(w * w + 1)
        ref = mp.sqrt((5 * w * w + 4 - 4 * w * r) / (4 * w * w + 3 - 4 * w * r))
        ref = -ref if omega >= 0.0 else ref
        assert abs(c_of_omega(omega) - ref) <= 1e-14 * abs(ref)


# Targets near the positive axis, outside its band: tiny c on the hyperbolic
# part.  When the fan had one coordinate u, with c = (1 + span) - u on u's
# coarse float grid near 1 + span, c was resolved only to an absolute ~1e-16
# there (relative errors 1.45e-5, 3.6e-6, 1.4e-7, 4.1e-8 and 4.0e-10); c is
# now the hyperbolic part's own search variable.
_NEAR_AXIS = [(99.98999899979995, 3e-9), (50.0, 3e-9), (10.0, 1e-8), (2.0, 2e-9),
              (1.01, 1.5e-9)]


def test_distance_to_class_near_axis_relative_c():
    worst = 0.0
    for x, y in _NEAR_AXIS:
        res = distance_to_class(QuotientPoint(x, y))
        c, _ = _planar_solve(x, y, res)
        worst = max(worst, float(abs(res.c - c) / abs(c)))
    assert worst <= 1e-13


def _relative_residual(x, y, res):
    px, py = _planar(mp.mpf(res.c), mp.mpf(res.s))
    return mp.hypot(px - x, py - y) / mp.hypot(x, y)


def test_near_circle_family_residual():
    # Every 20th target of the near-circle family whose evaluation budget
    # test_synthesis checks.
    worst = max(_relative_residual(x, y, distance_to_class(QuotientPoint(x, y)))
                for x, y in near_circle_targets()[::20])
    assert worst <= 5e-15


@pytest.mark.parametrize("x, y", [(1e200, 1e199), (-1e200, 0.0), (5e159, 0.0)])
def test_distance_to_class_beyond_squared_overflow(x, y):
    # x^2 + y^2 overflows, r does not: the answer's planar point, at 40
    # digits, reaches the target to a relative residual of rounding in c and
    # s, whose sensitivity there is about s ~ 460.
    res = distance_to_class(QuotientPoint(x, y))
    assert _relative_residual(x, y, res) <= 1e-13
