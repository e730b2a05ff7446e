import math

import numpy as np
import pytest

import sl2geo.geodesics
import sl2geo.synthesis
from sl2geo.selftest import random_sl2  # noqa: F401  (imported by the test modules)


def _offset(rng):
    # Random sign, size log-uniform in [1e-12, 1e-8].
    return math.copysign(10.0 ** rng.uniform(-12.0, -8.0), rng.random() - 0.5)


def _near(rng, x0):
    # Distance to (x0, 0) log-uniform, direction uniform.
    d, theta = abs(_offset(rng)), rng.uniform(-math.pi, math.pi)
    return x0 + d * math.cos(theta), d * math.sin(theta)


def _circle(rng):
    # |r^2 - 1| log-uniform, either side of the circle, angle uniform.
    r, beta = math.sqrt(1.0 + _offset(rng)), rng.uniform(-math.pi, math.pi)
    return r * math.cos(beta), r * math.sin(beta)


def _axis(rng):
    # |y| log-uniform, |x| log-uniform in [1, 10] on either side.
    return math.copysign(10.0 ** rng.uniform(0.0, 1.0), rng.random() - 0.5), _offset(rng)


def _positive_axis(rng):
    # x log-uniform in [1.01, 100], |y| log-uniform in [1e-9, 1e-6]: just
    # outside the axis band, where c is tiny.
    y = 10.0 ** rng.uniform(-9.0, -6.0)
    return 10.0 ** rng.uniform(math.log10(1.01), 2.0), math.copysign(y, rng.random() - 0.5)


STRATA = {
    "overlap+1": lambda rng: _near(rng, 1.0),
    "overlap-1": lambda rng: _near(rng, -1.0),
    "circle": _circle,
    "axis": _axis,
    "axis+": _positive_axis,
    "r3": lambda rng: (-3.0 + _offset(rng), _offset(rng)),
}


def strata_targets(rng, n, strata=tuple(STRATA)):
    """Yield n planar targets on the strata boundaries of the quotient.

    The targets cycle through `strata`: the overlaps of the singular bands
    near (1, 0) and (-1, 0), the unit circle, the axis, the positive axis
    just outside its band, and the orthogonal crossing (-3, 0) of r = 3.
    Each yields (stratum, x, y, X), where X is a unimodular matrix
    projecting to (x, y), with symmetric part of size sqrt(r^2 - 1) in a
    random direction, or None where r^2 < 1.
    """
    for i in range(n):
        name = strata[i % len(strata)]
        x, y = STRATA[name](rng)
        r_sq = x * x + y * y
        matrix = None
        if r_sq >= 1.0:
            size, psi = math.sqrt(r_sq - 1.0), rng.uniform(-math.pi, math.pi)
            m, k = size * math.cos(psi), size * math.sin(psi)
            matrix = np.array([[x + m, y + k], [k - y, x - m]])
        yield name, x, y, matrix


def near_circle_targets(n=1000):
    """n planar targets just outside the unit circle, (x, y) each: r^2 - 1
    log-uniform in [1e-14, 1e-2] and the polar angle uniform, seeded."""
    rng = np.random.default_rng(24)
    excess, beta = 10.0 ** rng.uniform(-14.0, -2.0, n), rng.uniform(-math.pi, math.pi, n)
    r = np.sqrt(1.0 + excess)
    return [(float(x), float(y)) for x, y in zip(r * np.cos(beta), r * np.sin(beta))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def search_counts(monkeypatch):
    """Objective evaluations per root search, as [finder, count] records.

    Wraps `synthesis._fan` (finder "fan"): each fan it builds is one search,
    and every call of its three parts counts, the junction signs and the cut
    included; the crossing that re-evaluates the root for its (c, s) does
    not.  Wraps the `bisect` binding of `geodesics` (`s_int`, finder
    "s_int"): s_int evaluates both bracket ends itself before it calls the
    finder, so its record starts at 2.  A record is appended when its search
    starts, so an `s_int` search nested in a fan objective follows the fan
    record.  Clear the list between calls to attribute records to one call.
    """
    records = []

    def counting(record, f):
        def counted(t):
            record[1] += 1
            return f(t)
        return counted

    fan, find = sl2geo.synthesis._fan, sl2geo.geodesics.bisect

    def counted_fan(*args):
        record = ["fan", 0]
        records.append(record)
        *parts, crossing = fan(*args)
        counted = [counting(record, part) for part in parts]
        raw = dict(zip(counted, parts))
        return (*counted, lambda part, t: crossing(raw[part], t))

    def counted_bisect(f, a, b, fa, fb):
        record = ["s_int", 2]
        records.append(record)
        return find(counting(record, f), a, b, fa, fb)

    monkeypatch.setattr(sl2geo.synthesis, "_fan", counted_fan)
    monkeypatch.setattr(sl2geo.geodesics, "bisect", counted_bisect)
    return records
