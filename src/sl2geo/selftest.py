"""The package's invariant checks: INVARIANTS states each identity once, as
a (module, identity, check) entry whose check yields (what, error, tolerance)
from fixed seeds.  `sl2geo selftest` prints one PASS/FAIL line per module, and
tests/test_invariants.py runs each entry.  Checks call the library through
its modules at run time, so an injected fault fails its module's line."""

import itertools
import math

import numpy as np

from . import algebra, automorphisms, geodesics, quotient, su2, synthesis
from .types import Factorization, QuotientPoint


def random_sl2(rng) -> np.ndarray:
    """Random SL(2) element as a product of two exponentials."""
    m1, m2 = (algebra.from_coords(rng.normal(0.0, 0.8, 3)) for _ in range(2))
    return algebra.exp2(m1) @ algebra.exp2(m2)


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)))


def _lie_algebra():
    # The brackets and orthonormality of A0, A1, A2; exp2 on one-parameter
    # subgroups, det exp2 = 1, and ad_[M, N] = [ad_M, ad_N].
    a0, a1, a2 = basis = algebra.basis()
    for x, y, want in ((a0, a1, -a2), (a0, a2, a1), (a1, a2, a0)):
        yield "bracket of basis elements", _gap(algebra.bracket(x, y), want), 1e-15
    gram = [[algebra.metric_g(x, y) for y in basis] for x in basis]
    yield "Gram matrix of the basis", _gap(gram, np.eye(3)), 1e-15
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n = (algebra.from_coords(rng.normal(0.0, 1.0, 3)) for _ in range(2))
        t, u = rng.uniform(-2.0, 2.0, 2)
        e_t, e_u, e_tu = map(algebra.exp2, (t * m, u * m, (t + u) * m))
        ad_m, ad_n, ad_mn = map(algebra.adjoint_matrix, (m, n, algebra.bracket(m, n)))
        yield "exp2(tM) exp2(uM)", _gap(e_t @ e_u, e_tu), 1e-11
        yield "det exp2(tM)", abs(np.linalg.det(e_t) - 1.0), 1e-11
        yield "ad of a bracket", _gap(ad_mn, ad_m @ ad_n - ad_n @ ad_m), 1e-11


def _isometric_quotient():
    # project is SO(2)-invariant; off the circle K is recovered up to sign and
    # the frame projects orthonormally; the family solves the geodesic equation.
    rng, regular = np.random.default_rng(12), 0
    while regular < 1000:
        x = random_sl2(rng)
        k = algebra.rotation(rng.uniform(-math.pi, math.pi))
        y = k @ x @ k.T
        p, q = quotient.project(x), quotient.project(y)
        yield "project(K X K^T)", math.dist(p, q) / max(1.0, abs(p.x), abs(p.y)), 1e-12
        if p.radius_sq > 1.0 + 1e-6:
            regular += 1
            rec = quotient.recover_rotation(x, y)
            frame = np.array(quotient.pushforward_frame(x))
            gram = quotient.quotient_metric(p)[0, 0] * frame @ frame.T
            yield "recover_rotation's non-unique flag", float(not rec.unique), 0.0
            yield "recovered K X K^T", _gap(rec.matrix @ x @ rec.matrix.T, y), 1e-9
            yield "recovered K", min(_gap(rec.matrix, k), _gap(rec.matrix, -k)), 1e-9
            yield "Gram matrix of the projected frame", _gap(gram, np.eye(2)), 1e-9
    for c in (0.5, 1.0, 1.2):
        hi = geodesics.s_int(c)
        if c > geodesics.C_LANDING:  # stay clear of the circle it lands on
            hi *= 1.0 - 1e-3
        grid = np.linspace(0.1, hi, 100)
        yield f"geodesic equation at c = {c}", quotient.ode_residual(c, grid), 1e-8


def _family():
    # s_int(1) solves tan s = s (the c = 1 geodesic is (1 - is) e^{is}); s_int is
    # continuous there, landings reach the circle, lifts project onto the family.
    lo, hi = math.pi + 1e-9, 1.5 * math.pi - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.sin(mid) > mid * math.cos(mid) else (lo, mid)
    sbar, xbar = 0.5 * (lo + hi), -geodesics.x_int(1.0)
    below, at, above = (geodesics.s_int(1.0 + d) for d in (-1e-9, 0.0, 1e-9))
    yield "s_int(1)", abs(at - sbar), 1e-10
    yield "x_int(1)", abs(xbar - math.sqrt(1.0 + sbar * sbar)), 1e-9
    yield "printed crossing", max(abs(sbar - 4.49341), abs(xbar - 4.60333)), 1e-5
    for a, b in ((below, at), (above, at), (below, above)):
        yield "s_int across |c| = 1", abs(a - b), 1e-6
    for c in (1.2, 1.5, 1.7, 3.0):
        land = geodesics.radius_sq(c, geodesics.landing_time(c))
        yield f"landing radius^2 at c = {c}", abs(land - 1.0), 1e-12
    rng = np.random.default_rng(15)
    for _ in range(20):
        c, t = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)
        q = geodesics.planar_geodesic(c, 0.5 * t)
        for phi in rng.uniform(-math.pi, math.pi, 3):
            p = quotient.project(geodesics.lift(c, float(phi), t))
            yield "projected lift", math.dist(p, q) / max(1.0, abs(q.x)), 1e-9


def _worked_example():
    # Against the exact (c, s), a 40-digit root of x = 0, y = 3/2, and the
    # printed values, consistent with it to ~1e-5 (c, s) and ~5e-4 (K, P).
    sol = synthesis.solve(np.array([[0.0, -1.0], [1.0, 0.0]]),
                          np.array([[2.0, 1.0], [1.0, 1.0]]))
    k_ref = [[0.9170700563, 0.39872611144], [-0.39872611144, 0.9170700563]]
    p_ref = [[0.341017488, -0.36565977744], [-0.36565977744, -0.341017488]]
    yield "worked example's cut-locus flag", float(sol.on_cut_locus), 0.0
    yield "worked example's c", abs(sol.c - 1.2575651629220838), 1e-9
    yield "worked example's t_f", abs(sol.t_f - 2.0 * 2.7811611345877465), 1e-9
    yield "worked example's residual", sol.residual, 1e-9
    # solve reads r^2 - 1 off X_hat; the planar entry point forms it from (x, y).
    res = synthesis.distance_to_class(QuotientPoint(0.0, 1.5))
    yield "worked example's planar t_f", abs(res.t_f - 2.0 * 2.7811611345877465), 1e-9
    yield "printed c", abs(sol.c - 1.257558), 1e-5
    yield "printed s", abs(0.5 * sol.t_f - 2.78115), 2e-5
    yield "printed K and P", max(_gap(sol.K, k_ref), _gap(sol.P, p_ref)), 5e-4


def _generate_and_invert():
    rng = np.random.default_rng(16)
    for _ in range(50):
        c = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
        s = min(rng.uniform(0.05, 0.95) * geodesics.s_int(abs(c)), 12.0)
        x = geodesics.lift(c, rng.uniform(-math.pi, math.pi), 2.0 * s)
        sol = synthesis.solve(np.eye(2), x)
        yield f"(c, t_f) from c = {c}", math.dist((sol.c, sol.t_f), (c, 2.0 * s)), 1e-6


def _bridge():
    # c(0) = -2/sqrt(3); c(omega) decreases per branch and lands where omega does.
    yield "c(0)", abs(su2.c_of_omega(0.0) + 2.0 / math.sqrt(3.0)), 1e-12
    for grid in (np.linspace(0.0, 8.0, 200), np.linspace(-8.0, -1e-9, 200)):
        c = [su2.c_of_omega(float(w)) for w in grid]
        yield f"rises of c from {grid[0]}", sum(b >= a for a, b in zip(c, c[1:])), 0
    yield "landing match at omega = 0", su2.landing_match_error(0.0), 1e-12
    for w in (1.0, -2.5, *np.linspace(-5.0, 5.0, 100)):
        yield f"landing match at omega = {w}", su2.landing_match_error(float(w)), 1e-9


def _lorentz_group():
    # Both membership tests accept every member, reject members perturbed by
    # 1e-3 and agree on random matrices; factorize and realize round-trip.
    rng = np.random.default_rng(17)
    tests = automorphisms.is_so12, automorphisms.is_lie_automorphism
    for _ in range(500):
        f = Factorization(rng.uniform(-math.pi, math.pi), int(rng.integers(0, 3)),
                          rng.uniform(-2.5, 2.5), rng.uniform(-math.pi, math.pi))
        m = automorphisms.assemble(f)
        wrong, other = m + rng.normal(0.0, 1e-3, (3, 3)), rng.normal(0.0, 1.0, (3, 3))
        g = automorphisms.factorize(m)
        realized = automorphisms.aut_matrix_from_group(automorphisms.realize(f))
        again = automorphisms.assemble(automorphisms.factorize(realized))
        misjudged = sum(not test(m) or test(wrong) for test in tests)
        yield "members rejected or perturbed ones accepted", misjudged, 0
        if abs(np.linalg.det(other)) >= 1e-6:
            yield "disagreements", len({test(other) for test in tests}) - 1, 0
        yield "|theta| - pi", max(abs(g.theta1), abs(g.theta2)) - math.pi, 1e-12
        yield "assemble(factorize(M))", _gap(automorphisms.assemble(g), m), 1e-10
        yield "conjugation by realize(f)", _gap(realized, m), 1e-9
        yield "assemble(factorize(realized))", _gap(again, m), 1e-9


INVARIANTS = (
    ("algebra", "lie_algebra", _lie_algebra),
    ("quotient", "isometric_quotient", _isometric_quotient),
    ("geodesics", "family", _family),
    ("synthesis", "worked_example", _worked_example),
    ("synthesis", "generate_and_invert", _generate_and_invert),
    ("synthesis", "fan_ordering", lambda: (
        (f"fan ordering at r = {r}", synthesis.check_fan_monotone(r, 96), 0.0)
        for r in (1.1, 1.2, 1.5, 1.8, 2.0, 2.9, 3.0, 3.1, 3.5, 5.0, 10.0))),
    ("su2", "bridge", _bridge),
    ("automorphisms", "lorentz_group", _lorentz_group),
)


def violation(check) -> str | None:
    """The check's first error above its tolerance (NaN included), or None."""
    return next((f"{what} off by {error!r}, tolerance {tol!r}"
                 for what, error, tol in check() if not error <= tol), None)


def run_selftests(out=print) -> int:
    """Run INVARIANTS; print one line per module; 0 iff everything passed."""
    failures = 0
    for module, entries in itertools.groupby(INVARIANTS, key=lambda entry: entry[0]):
        try:
            problem = next(filter(None, (violation(e[2]) for e in entries)), None)
        except Exception as exc:  # a crash is a failure, not an abort
            problem = f"raised {type(exc).__name__}: {exc}"
        out(f"PASS {module}" if problem is None else f"FAIL {module}: {problem}")
        failures += problem is not None
    return 1 if failures else 0
