import math
import sys

import pytest

from sl2geo._kernels import bisect, coshc, coshc_sinhc, sinhc, zeroin
from sl2geo.errors import NoRootError
from sl2geo.tolerances import SERIES_CUTOFF


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def _ends(f, a, b):
    # The finders take the bracket ends' values from their caller.
    return f, a, b, f(a), f(b)


class TestBisect:
    def test_no_sign_change(self):
        with pytest.raises(NoRootError):
            bisect(*_ends(lambda x: x * x + 1.0, -1.0, 1.0))

    def test_endpoint_root_is_exact(self):
        assert bisect(*_ends(lambda x: x - 2.0, 2.0, 3.0)) == 2.0
        assert bisect(*_ends(lambda x: x - 3.0, 2.0, 3.0)) == 3.0

    def test_linear_root_to_one_ulp(self):
        for root in (0.1, 1.0 / 3.0, math.pi, 7.25e-3):
            got = bisect(*_ends(lambda x: 3.0 * (x - root), 0.0, 4.0))
            assert abs(got - root) <= math.ulp(root)
            got = bisect(*_ends(lambda x: root - x, 0.0, 4.0))
            assert abs(got - root) <= math.ulp(root)

    def test_stops_when_no_float_lies_between_the_ends(self):
        # Floats near 1e5 are 1.5e-11 apart, so the bracket never gets as
        # narrow as ROOT_TOL; the search must stop on adjacent floats.
        lo, hi = 1e5, 1e5 + 1.0
        f, calls = counted(lambda x: x - (1e5 + 1.0 / 3.0))
        got = bisect(*_ends(f, lo, hi))
        assert len(calls) <= 64
        assert lo <= got <= hi
        assert abs(got - (1e5 + 1.0 / 3.0)) <= math.ulp(1e5)


@pytest.mark.parametrize("find", [bisect, zeroin])
class TestBracketContract:
    """The end values come from the caller; neither finder evaluates an end."""

    def test_zero_end_returned_without_a_call(self, find):
        f, calls = counted(lambda x: x - 2.0)
        assert find(f, 2.0, 3.0, 0.0, 1.0) == 2.0
        assert find(f, 1.0, 2.0, -1.0, 0.0) == 2.0
        assert find(f, 2.0, 3.0, -0.0, 1.0) == 2.0
        assert calls == []

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -3.0), (math.inf, 1.0)])
    def test_same_signs_raise(self, find, fa, fb):
        f, calls = counted(lambda x: x)
        with pytest.raises(NoRootError, match="no sign change"):
            find(f, -1.0, 1.0, fa, fb)
        assert calls == []

    def test_ends_never_evaluated(self, find):
        f, calls = counted(lambda x: x * x - 2.0)
        got = find(f, 0.0, 2.0, -2.0, 2.0)
        assert abs(got - math.sqrt(2.0)) <= 4.0 * math.ulp(math.sqrt(2.0))
        assert calls and 0.0 not in calls and 2.0 not in calls


class TestZeroin:
    def test_no_sign_change(self):
        with pytest.raises(NoRootError):
            zeroin(*_ends(lambda x: x * x + 1.0, -1.0, 1.0))

    def test_endpoint_root_is_exact(self):
        assert zeroin(*_ends(lambda x: x - 2.0, 2.0, 3.0)) == 2.0
        assert zeroin(*_ends(lambda x: x - 3.0, 2.0, 3.0)) == 3.0

    @pytest.mark.parametrize("f, a, b, root", [
        (lambda x: x * x - 2.0, 0.0, 2.0, math.sqrt(2.0)),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: math.exp(x) - 10.0, 0.0, 5.0, math.log(10.0)),
        (lambda x: 3.0 * (x - 7.25e-3), 0.0, 4.0, 7.25e-3),
        (lambda x: math.pi - x, 0.0, 4.0, math.pi),
        (lambda x: x - 1e-300, -1.0, 1.0, 1e-300),
    ])
    def test_smooth_root_to_rounding(self, f, a, b, root):
        f, calls = counted(f)
        got = zeroin(*_ends(f, a, b))
        assert abs(got - root) <= 2.0 * math.ulp(root)
        assert len(calls) <= 12

    def test_pole_at_an_end(self):
        # An infinite end value, as the fan's falling part has at delta = 0:
        # the search stays bracketed and ends at the root.
        f, calls = counted(lambda x: 1.0 / (x * x) - 4.0)
        got = zeroin(f, 0.0, 1.0, math.inf, f(1.0))
        assert abs(got - 0.5) <= 2.0 * math.ulp(0.5)
        assert all(0.0 < x <= 1.0 for x in calls) and len(calls) <= 20

    @pytest.mark.parametrize("lo, hi, edge", [(0.0, 1.0, 1.0 / 3.0),
                                              (1e5, 1e5 + 1.0, 1e5 + 1.0 / 3.0)])
    def test_step_function_stays_bracketed(self, lo, hi, edge):
        # No interpolation step helps on a jump: the forced midpoint steps
        # keep every evaluation inside [lo, hi] and end next to the jump.
        f, calls = counted(lambda x: -1.0 if x < edge else 1.0)
        got = zeroin(*_ends(f, lo, hi))
        assert all(lo <= x <= hi for x in calls)
        assert abs(got - edge) <= 4.0 * sys.float_info.epsilon * edge
        assert len(calls) <= 64


# The smallest z at which cosh(sqrt(z)) overflows; the float below it does not.
_COSH_EDGE = 710.475860073944 ** 2


class TestCoshcSinhc:
    @pytest.mark.parametrize("z", [
        0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12,
        0.5 * SERIES_CUTOFF, -0.5 * SERIES_CUTOFF,
        math.nextafter(SERIES_CUTOFF, 0.0), SERIES_CUTOFF,
        math.nextafter(SERIES_CUTOFF, 1.0), -math.nextafter(SERIES_CUTOFF, 0.0),
        -SERIES_CUTOFF, -math.nextafter(SERIES_CUTOFF, 1.0),
        1e-6, -1e-6, 0.25, -0.25, 1.0, -1.0, math.pi, -math.pi ** 2, 37.5,
        -1234.5, 1e4, -1e4, 5e5, -5e5, -1e12, -1e300,
        math.nextafter(_COSH_EDGE, 0.0), _COSH_EDGE, math.nextafter(_COSH_EDGE, 1e6),
        5.1e5, 1e6, 1e300,
    ])
    def test_equals_the_separate_kernels(self, z):
        # == on floats: the pair must be bit-identical to the two calls.
        assert coshc_sinhc(z) == (coshc(z), sinhc(z))

    def test_saturates_past_the_overflow_edge(self):
        assert coshc_sinhc(math.nextafter(_COSH_EDGE, 0.0))[0] < math.inf
        assert coshc_sinhc(_COSH_EDGE) == (math.inf, math.inf)
