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


STRATA = {
    "overlap+1": lambda rng: _near(rng, 1.0),
    "overlap-1": lambda rng: _near(rng, -1.0),
    "circle": _circle,
    "axis": _axis,
    "r3": lambda rng: (-3.0 + _offset(rng), _offset(rng)),
}


def strata_targets(rng, n, strata=tuple(STRATA)):
    """Yield n planar targets on the strata boundaries of the quotient.

    The targets cycle through `strata`: the overlaps of the singular bands
    near (1, 0) and (-1, 0), the unit circle, the axis, and the orthogonal
    crossing (-3, 0) of r = 3.  Each yields (stratum, x, y, X), where X is a
    unimodular matrix projecting to (x, y), with symmetric part of size
    sqrt(r^2 - 1) in a random direction, or None where r^2 < 1.
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def search_counts(monkeypatch):
    """Objective evaluations per root search, as [finder, count] records.

    Wraps the `bisect` and `zeroin` bindings of `synthesis` (the fan
    search, finder "fan", whichever root finder it takes) and the `bisect`
    binding of `geodesics` (`s_int`, finder "s_int").  A record is appended
    when its search starts, so an `s_int` search nested in a fan objective
    follows the fan record.  Clear the list between calls to attribute
    records to one call.
    """
    records = []

    def counting(finder, find):
        def counted(f, a, b):
            record = [finder, 0]
            records.append(record)

            def objective(t):
                record[1] += 1
                return f(t)
            return find(objective, a, b)
        return counted

    for module, name, finder in ((sl2geo.synthesis, "bisect", "fan"),
                                 (sl2geo.synthesis, "zeroin", "fan"),
                                 (sl2geo.geodesics, "bisect", "s_int")):
        monkeypatch.setattr(module, name, counting(finder, getattr(module, name)))
    return records
