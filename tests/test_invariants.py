"""Each entry of `sl2geo.selftest.INVARIANTS` as its own test, with id
module/identity: tier-1 and `sl2geo selftest` run the same checks."""

import pytest

from sl2geo.selftest import INVARIANTS, violation


@pytest.mark.parametrize("check", [entry[2] for entry in INVARIANTS],
                         ids=[f"{module}/{identity}" for module, identity, _ in INVARIANTS])
def test_invariant(check):
    problem = violation(check)
    assert problem is None, problem
