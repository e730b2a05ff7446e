"""Global minimality of distance_to_class, checked by an independent scan.

Every geodesic crossing of radius r = sqrt(1 + R^2) has a closed form:
s sinhc((1 - c^2) s^2) = R there, so with w = sqrt(|1 - c^2|)

  * |c| <= 1:  s = asinh(w R)/w  (s = R at c = 1);
  * |c| > 1:   s = (asin(w R) + 2 pi k)/w or (pi - asin(w R) + 2 pi k)/w.

The scan takes c >= 0.  Branch n is s = (pi n + a)/w for even n and
(pi n - a)/w for odd n, with a = asin(w R) in (0, pi/2], w = sin(a)/R and
k1 = coshc = +-cos(a); branch 0 continues through a = 0 into |c| <= 1, here
t in [-1, 0] with c = 1 + t.  At the crossing k2 = c R, and the continuous
polar angle is c s - atan2(k2, k1).  The scan samples each branch, bisects
every sign change of angle - phi, for phi = +-beta mod 2 pi (-beta is the
mirror target, reached by -c), and keeps the shortest time.  It calls
nothing of the library's solver and no library root finder.
"""

import math

import numpy as np

from sl2geo import QuotientPoint, distance_to_class, planar_geodesic
from sl2geo.errors import StartPointError
from sl2geo.tolerances import SINGULAR_BAND

from conftest import strata_targets

TAU = 2.0 * math.pi


def _crossing(n, t, radial):
    """(c >= 0, s, polar angle) of the radius-r crossing at t on branch n."""
    if t <= 0.0:
        c = 1.0 + t
        w = math.sqrt(-t * (2.0 + t))
        s = math.asinh(w * radial) / w if w > 0.0 else radial
        k1 = math.hypot(1.0, w * radial)  # cosh(w s)
    else:
        w = math.sin(t) / radial
        c = math.hypot(1.0, w)
        s = (math.pi * n + (-t if n % 2 else t)) / w
        k1 = -math.cos(t) if n % 2 else math.cos(t)
    return c, s, c * s - math.atan2(c * radial, k1)


def _grid(n, size=200):
    # a in (0, pi/2], uniform and geometric towards 0, where w R -> 0; branch
    # 0 adds |c| <= 1, geometric towards c = 0 and c = 1 as well.
    ends = [2.0 ** -e for e in np.linspace(1.0, 50.0, size)]
    ts = [0.5 * math.pi * f for f in ends] + [0.5 * math.pi * i / size for i in range(1, size + 1)]
    if n == 0:
        ts += [-i / size for i in range(size + 1)] + [-f for f in ends] + [f - 1.0 for f in ends]
    return sorted(set(ts))


def _bisect(f, a, b, fa):
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m


def _branches(radial, beta, s_max):
    """Branches 2k and 2k + 1 of the loops k that can reach +-beta by s_max.

    On loop k > 0, s >= 2 pi k/w >= 2 pi k R, and s <= s_max needs
    w >= w_k = 2 pi k/s_max.  Write either branch as s = (2 pi k + t)/w,
    t in (0, pi), and rho = c/w: the angle is 2 pi k plus
    2 pi k (rho - 1) + rho t - atan2(rho sin t, cos t), which is 0 at rho = 1
    and has rho-derivative in [0, pi + 1/2], so it lies in
    [0, (rho - 1)(2 pi k + 4)], and rho <= sqrt(1 + 1/w_k^2).  Both bounds
    fall with k.
    """
    low, k = min(beta, TAU - beta), 0
    while True:
        yield from (2 * k, 2 * k + 1)
        k += 1
        w_k = TAU * k / s_max
        if w_k * radial > 1.0 or (math.hypot(1.0, 1.0 / w_k) - 1.0) * (TAU * k + 4.0) < low:
            return


def _scan(x, y, s_max):
    """(2 s, signed c) of every crossing of (x, y) with s <= s_max, sorted."""
    radial = math.sqrt(x * x + y * y - 1.0)
    beta = abs(math.atan2(y, x))
    sign = -1.0 if y < 0.0 else 1.0
    found = []
    for n in _branches(radial, beta, s_max):
        points = [(t, *_crossing(n, t, radial)) for t in _grid(n)]
        keep = [i for i, p in enumerate(points) if p[2] <= s_max]
        if not keep:
            continue
        # One point past each end, so that no cell holding a root is cut.
        points = points[max(keep[0] - 1, 0):keep[-1] + 2]
        ts, angles = [p[0] for p in points], [p[3] for p in points]
        for mirror, phi0 in ((1.0, beta), (-1.0, -beta)):
            phi = phi0 + TAU * math.ceil((min(angles) - phi0) / TAU)
            while phi <= max(angles):
                gaps = [angle - phi for angle in angles] + [0.0]
                for i, (ga, gb) in enumerate(zip(gaps, gaps[1:])):
                    if ga == 0.0:  # a sample on the root: the fold a = pi/2 at x = -3
                        t = ts[i]
                    elif gb != 0.0 and (ga > 0.0) != (gb > 0.0):
                        t = _bisect(lambda t: _crossing(n, t, radial)[2] - phi,
                                    ts[i], ts[i + 1], ga)
                    else:
                        continue
                    c, s, _ = _crossing(n, t, radial)
                    found.append((2.0 * s, sign * mirror * c))
                phi += TAU
    return sorted(found)


def _solved_point(x, y):
    # Within SINGULAR_BAND of the axis cut, off the circle's band,
    # distance_to_class solves (x, y) itself, but its cut flag stands for the
    # +-c pair that reaches the cut point (-r, 0); the scan sees the pair there.
    r_sq = x * x + y * y
    if abs(y) <= SINGULAR_BAND and x < 0.0 and abs(r_sq - 1.0) > SINGULAR_BAND:
        return -math.sqrt(r_sq), 0.0
    return x, y


def _targets():
    found = [(x, y) for _, x, y, _ in strata_targets(np.random.default_rng(2105), 120)
             if x * x + y * y > 1.0]
    rng = np.random.default_rng(2106)
    for _ in range(12):  # r up to 1e6
        r, beta = 10.0 ** rng.uniform(1.0, 6.0), rng.uniform(-math.pi, math.pi)
        found.append((r * math.cos(beta), r * math.sin(beta)))
    for c in (1e-6, -1e-5, 1e-4):  # |c| down to 1e-6
        for s in (0.5, 2.0, 6.0):
            found.append(tuple(planar_geodesic(c, s)))
    found += [(x, 0.0) for x in (-1.5, -3.0, -10.0, -1e3)]
    found += [(0.0, 1.5), (-2.0, 1.0), (3.0, -2.0), (0.5, -1.2)]
    # The axis bands, both signs of y: x - 1 down to ~1e-9 near the start
    # point, where |y| >= x - 1 for some, and the cut's band.
    for y in (1e-12, -1e-11, 1e-10, -5e-10, 1e-9, -1e-9):
        found += [(1.0 + d, y) for d in (1.2e-9, 1e-7, 1e-4, 1.0, 100.0)]
        found += [(x, y) for x in (-1.5, -3.0, -50.0)]
    return found


def test_distance_is_the_global_minimum():
    checked = pairs = 0
    for x, y in _targets():
        try:
            res = distance_to_class(QuotientPoint(x, y))
        except StartPointError:
            continue
        px, py = _solved_point(x, y)
        found = _scan(px, py, 0.525 * res.t_f + 1e-12)
        t_min = found[0][0]
        assert abs(res.t_f - t_min) <= 1e-9 * max(1.0, res.t_f), (x, y, res, found[:3])
        minimizers = {c for t_f, c in found if t_f - t_min <= 1e-12 * max(1.0, t_min)}
        # The scan sees the +-c pair of the axis cut.  On the circle the other
        # minimizers are the lift's SO(2) conjugates, which it cannot see.
        # Regular targets thus have exactly one minimizer.
        on_circle = abs(x * x + y * y - 1.0) <= SINGULAR_BAND
        assert res.on_cut_locus == (len(minimizers) > 1 or on_circle), (x, y, found[:3])
        checked += 1
        pairs += len(minimizers) > 1
    assert checked >= 100 and pairs >= 10, (checked, pairs)


def test_axis_band_near_the_start_point():
    # Near (1, 0) the distance grows like sqrt|y|: acosh(x), the distance to
    # (x, 0), is 8.94e-5 here against the 1.15e-4 it takes to reach the target.
    x, y = 1.000000001, -1e-9
    res = distance_to_class(QuotientPoint(x, y))
    assert abs(res.t_f - _scan(x, y, 3.0 * res.t_f)[0][0]) <= 1e-9
