import math

import pytest

from sl2geo._kernels import bisect
from sl2geo.errors import NoRootError


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


class TestBisect:
    def test_no_sign_change(self):
        with pytest.raises(NoRootError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root_is_exact(self):
        assert bisect(lambda x: x - 2.0, 2.0, 3.0) == 2.0
        assert bisect(lambda x: x - 3.0, 2.0, 3.0) == 3.0

    def test_linear_root_to_one_ulp(self):
        for root in (0.1, 1.0 / 3.0, math.pi, 7.25e-3):
            got = bisect(lambda x: 3.0 * (x - root), 0.0, 4.0)
            assert abs(got - root) <= math.ulp(root)
            got = bisect(lambda x: root - x, 0.0, 4.0)
            assert abs(got - root) <= math.ulp(root)

    def test_stops_when_no_float_lies_between_the_ends(self):
        # Floats near 1e5 are 1.5e-11 apart, so the bracket never gets as
        # narrow as ROOT_TOL; the search must stop on adjacent floats.
        lo, hi = 1e5, 1e5 + 1.0
        f, calls = counted(lambda x: x - (1e5 + 1.0 / 3.0))
        got = bisect(f, lo, hi)
        assert len(calls) <= 64
        assert lo <= got <= hi
        assert abs(got - (1e5 + 1.0 / 3.0)) <= math.ulp(1e5)
