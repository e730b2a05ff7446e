"""Reduced invariant suites runnable without a test harness.

Each suite re-checks the load-bearing identities of one module at small
sample counts and fixed seeds; `run_selftests` prints one PASS/FAIL line per
suite and returns a process exit code.  Functions are resolved through
their modules at call time, so an injected fault (e.g. a wrong Christoffel
sign) is picked up by the relevant suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra, automorphisms, geodesics, quotient, su2, synthesis
from .types import Factorization


def _random_sl2(rng) -> np.ndarray:
    m1 = algebra.from_coords(rng.normal(0.0, 0.8, 3))
    m2 = algebra.from_coords(rng.normal(0.0, 0.8, 3))
    return algebra.exp2(m1) @ algebra.exp2(m2)


def _suite_algebra() -> str | None:
    a0, a1, a2 = algebra.basis()
    if np.max(np.abs(algebra.bracket(a0, a1) + a2)) > 1e-12:
        return "bracket [A0, A1] != -A2"
    gram = [[algebra.metric_g(x, y) for y in (a0, a1, a2)] for x in (a0, a1, a2)]
    if np.max(np.abs(np.array(gram) - np.eye(3))) > 1e-12:
        return "basis is not orthonormal"
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = algebra.from_coords(rng.normal(0.0, 1.0, 3))
        t, u = rng.uniform(-2.0, 2.0, 2)
        left = algebra.exp2(t * m) @ algebra.exp2(u * m)
        right = algebra.exp2((t + u) * m)
        if np.max(np.abs(left - right)) > 1e-10:
            return "one-parameter subgroup additivity failed"
        det = np.linalg.det(algebra.exp2(t * m))
        if abs(det - 1.0) > 1e-11:
            return f"det(exp2) = {det}"
        n = algebra.from_coords(rng.normal(0.0, 1.0, 3))
        rep = (algebra.adjoint_matrix(algebra.bracket(m, n))
               - algebra.adjoint_matrix(m) @ algebra.adjoint_matrix(n)
               + algebra.adjoint_matrix(n) @ algebra.adjoint_matrix(m))
        if np.max(np.abs(rep)) > 1e-10:
            return "adjoint representation property failed"
    return None


def _suite_quotient() -> str | None:
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = _random_sl2(rng)
        theta = rng.uniform(-math.pi, math.pi)
        k = algebra.rotation(theta)
        p1 = quotient.project(x)
        p2 = quotient.project(k @ x @ k.T)
        if math.hypot(p1.x - p2.x, p1.y - p2.y) > 1e-9 * max(1.0, abs(p1.x)):
            return "projection is not conjugation-invariant"
        if p1.radius_sq > 1.0 + 1e-6:
            f1, f2 = quotient.pushforward_frame(x)
            g = quotient.quotient_metric(p1)
            gram = np.array([
                [g[0, 0] * (f1.dx * f1.dx + f1.dy * f1.dy),
                 g[0, 0] * (f1.dx * f2.dx + f1.dy * f2.dy)],
                [g[0, 0] * (f2.dx * f1.dx + f2.dy * f1.dy),
                 g[0, 0] * (f2.dx * f2.dx + f2.dy * f2.dy)],
            ])
            if np.max(np.abs(gram - np.eye(2))) > 1e-9:
                return "pushforward frame is not orthonormal"
            rec = quotient.recover_rotation(x, k @ x @ k.T)
            if np.max(np.abs(rec.matrix @ x @ rec.matrix.T - k @ x @ k.T)) > 1e-8:
                return "rotation recovery round-trip failed"
    for c in (0.5, 1.0, 1.2):
        hi = geodesics.s_int(c)
        if geodesics.radius_sq(c, hi) < 1.0 + 1e-6:
            hi *= 1.0 - 1e-3
        res = quotient.ode_residual(c, np.linspace(0.1, hi, 60))
        if res > 1e-8:
            return f"geodesic equation residual {res} at c = {c}"
    return None


def _suite_geodesics() -> str | None:
    sbar = geodesics.s_int(1.0)
    if abs(sbar - 4.49341) > 1e-4:
        return f"axis-crossing time at c = 1 is {sbar}"
    if abs(-geodesics.x_int(1.0) - math.sqrt(1.0 + sbar * sbar)) > 1e-9:
        return "crossing abscissa does not match the radius formula"
    if abs(geodesics.s_int(1.0 - 1e-9) - geodesics.s_int(1.0 + 1e-9)) > 1e-6:
        return "s_int is discontinuous across c = 1"
    for c in (1.2, 1.5, 3.0):
        land = geodesics.radius_sq(c, geodesics.landing_time(c))
        if abs(land - 1.0) > 1e-8:
            return f"landing radius {land} at c = {c}"
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.1, 4.0)
        lifted = geodesics.lift(c, phi, t)
        p = quotient.project(lifted)
        q = geodesics.planar_geodesic(c, 0.5 * t)
        if math.hypot(p.x - q.x, p.y - q.y) > 1e-9 * max(1.0, abs(q.x)):
            return "lift does not project onto the planar geodesic"
    return None


def _suite_synthesis() -> str | None:
    xi = np.array([[0.0, -1.0], [1.0, 0.0]])
    xf = np.array([[2.0, 1.0], [1.0, 1.0]])
    sol = synthesis.solve(xi, xf)
    if abs(sol.c - 1.2575651629) > 1e-6 or sol.residual > 1e-9:
        return f"worked example solve drifted: c = {sol.c}"
    rng = np.random.default_rng(14)
    for _ in range(30):
        c = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
        s = min(rng.uniform(0.05, 0.95) * geodesics.s_int(abs(c)), 12.0)
        x = geodesics.lift(c, rng.uniform(-math.pi, math.pi), 2.0 * s)
        rec = synthesis.solve(np.eye(2), x)
        if abs(rec.c - c) > 1e-6 or abs(rec.t_f - 2.0 * s) > 1e-6:
            return f"generate-and-invert failed at c = {c}"
    for r in (1.2, 1.8, 3.5):
        bad = synthesis.check_fan_monotone(r, 48)
        if bad > 0.0:
            return f"fan ordering violated by {bad} at r = {r}"
    return None


def _suite_su2() -> str | None:
    if abs(su2.c_of_omega(0.0) + 2.0 / math.sqrt(3.0)) > 1e-12:
        return "c(omega) wrong at omega = 0"
    for omega in np.linspace(-5.0, 5.0, 40):
        if su2.landing_match_error(float(omega)) > 1e-9:
            return f"landing mismatch at omega = {omega}"
    values = [su2.c_of_omega(w) for w in np.linspace(0.0, 4.0, 30)]
    if any(b >= a for a, b in zip(values, values[1:])):
        return "c(omega) is not decreasing for omega >= 0"
    return None


def _suite_automorphisms() -> str | None:
    rng = np.random.default_rng(15)
    for _ in range(60):
        f = Factorization(rng.uniform(-math.pi, math.pi), int(rng.integers(0, 3)),
                          rng.uniform(-2.0, 2.0), rng.uniform(-math.pi, math.pi))
        m = automorphisms.assemble(f)
        if not (automorphisms.is_so12(m) and automorphisms.is_lie_automorphism(m)):
            return "generated automorphism rejected"
        wrong = m + rng.normal(0.0, 1e-3, (3, 3))
        if automorphisms.is_so12(wrong) or automorphisms.is_lie_automorphism(wrong):
            return "perturbed matrix accepted"
        again = automorphisms.assemble(automorphisms.factorize(m))
        if np.max(np.abs(again - m)) > 1e-9:
            return "factorization round-trip failed"
        realized = automorphisms.aut_matrix_from_group(automorphisms.realize(f))
        if np.max(np.abs(realized - m)) > 1e-9:
            return "realization round-trip failed"
    return None


SUITES = (
    ("algebra", _suite_algebra),
    ("quotient", _suite_quotient),
    ("geodesics", _suite_geodesics),
    ("synthesis", _suite_synthesis),
    ("su2", _suite_su2),
    ("automorphisms", _suite_automorphisms),
)


def run_selftests(out=print) -> int:
    """Run all suites; print one line per suite; 0 iff everything passed."""
    failures = 0
    for name, suite in SUITES:
        try:
            problem = suite()
        except Exception as exc:  # a crash is a failure, not an abort
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is None:
            out(f"PASS {name}")
        else:
            out(f"FAIL {name}: {problem}")
            failures += 1
    return 1 if failures else 0
