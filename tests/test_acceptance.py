"""Acceptance gate: one test per packaged criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 1 pins the printed reference values of the worked endpoint
example at tolerances tighter than those digits support: the exact solution
of that endpoint problem (independently verified with 40-digit arithmetic)
has c = 1.2575651629220838, which sits 7.2e-6 from the pinned 1.257558, and
the printed K/P matrices are internally consistent only to ~5e-4.  The c,
K and P sub-checks therefore fail by construction and are asserted as
stated rather than loosened; every other criterion passes.
"""

import math
import re
import time

import numpy as np

from sl2geo import (C_LANDING, C_ORTHOGONAL, CutLocusClass, Factorization,
                    assemble, aut_matrix_from_group, c_of_omega,
                    classify_cut_locus, factorize, is_lie_automorphism,
                    is_so12, landing_match_error, lift, lorentz_boost,
                    lorentz_rotation, ode_residual, planar_geodesic,
                    planar_jet, project, radius_sq, realize, rotation, s_int,
                    solve, verify_solution, x_int)
from sl2geo.figures import figure_fan

from conftest import random_sl2


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_01_reference_endpoint_example():
    xi = np.array([[0.0, -1.0], [1.0, 0.0]])
    xf = np.array([[2.0, 1.0], [1.0, 1.0]])
    start = time.perf_counter()
    sol = solve(xi, xf)
    elapsed = time.perf_counter() - start
    k_ref = np.array([[0.9170700563, 0.39872611144],
                      [-0.39872611144, 0.9170700563]])
    p_ref = 0.5 * np.array([[0.682034976, -0.73131955488],
                            [-0.73131955488, -0.682034976]])
    checks = {
        "c": abs(sol.c - 1.257558) <= 5e-6,
        "s0": abs(0.5 * sol.t_f - 2.78115) <= 5e-5,
        "K": float(np.max(np.abs(sol.K - k_ref))) <= 1e-5,
        "P": float(np.max(np.abs(sol.P - p_ref))) <= 1e-5,
        "residual": verify_solution(sol, xi, xf) <= 1e-6,
        "runtime": elapsed < 0.1,
    }
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _report(1, "reference endpoint example", ok,
            "" if ok else "failed sub-checks: " + ", ".join(failed))
    assert ok, (
        f"sub-checks failed: {failed}.  The exact solution of this endpoint "
        f"problem has c = 1.2575651629220838 (40-digit verification), "
        f"7.2e-6 away from the pinned 1.257558, and the pinned K/P digits "
        f"are self-consistent only to ~5e-4; these tolerances cannot be met "
        f"simultaneously with residual <= 1e-6.  Solver returned c={sol.c}, "
        f"residual={sol.residual}."
    )


def test_criterion_02_transcendental_constants():
    sbar = s_int(1.0)
    ok = (abs(sbar - 4.49341) <= 1e-5
          and abs(math.sqrt(1.0 + sbar * sbar) - 4.60333) <= 1e-5
          and abs(-x_int(1.0) - 4.60333) <= 1e-5)
    _report(2, "transcendental constants", ok,
            f"s_bar={sbar:.7f}, |x_int|={-x_int(1.0):.7f}")
    assert ok


def test_criterion_03_landmark_geodesics():
    sqrt3_pi = math.sqrt(3.0) * math.pi
    sqrt2_pi = math.sqrt(2.0) * math.pi
    ok = abs(s_int(C_LANDING) - sqrt3_pi) <= 1e-9
    p = planar_geodesic(C_LANDING, sqrt3_pi)
    ok = ok and math.hypot(p.x + 1.0, p.y) <= 1e-9
    s_orth = s_int(C_ORTHOGONAL)
    ok = ok and abs(s_orth - sqrt2_pi) <= 1e-9
    jet = planar_jet(C_ORTHOGONAL, s_orth)
    ok = ok and abs(2.0 * jet.vx) <= 1e-6  # orthogonal crossing slope
    worst = 0.0
    for i in range(50):
        t_shift = sqrt2_pi * i / 49.0
        a = planar_geodesic(C_ORTHOGONAL, sqrt2_pi - t_shift)
        b = planar_geodesic(-C_ORTHOGONAL, sqrt2_pi + t_shift)
        worst = max(worst, abs(a.x - b.x), abs(a.y - b.y))
    ok = ok and worst <= 1e-9
    _report(3, "landmark geodesics", ok, f"mirror defect {worst:.2e}")
    assert ok


def test_criterion_04_geodesic_equation_residuals():
    cases = (0.3, 0.9, 0.999, 1.0, 1.001, 1.1, C_ORTHOGONAL, C_LANDING, 1.5, 5.0)
    worst = 0.0
    for c in cases:
        horizon = s_int(c)
        if abs(radius_sq(c, horizon) - 1.0) < 1e-6:
            # Landing families end on the singular circle where the
            # equation degenerates; stay a hair inside.
            horizon *= 1.0 - 1e-3
        grid = np.linspace(0.1, horizon, 100)
        worst = max(worst, ode_residual(c, grid))
    ok = worst <= 1e-8
    _report(4, "closed form solves the geodesic equation", ok,
            f"worst residual {worst:.2e}")
    assert ok


def _refine_minimum(f, lo, hi, iterations=100):
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def test_criterion_05_monotonicity_of_crossing_data():
    low_grid = np.linspace(0.01, 1.0 - 1e-9, 200)
    s_low = [s_int(float(c)) for c in low_grid]
    x_low = [-x_int(float(c)) for c in low_grid]
    ok = all(b < a for a, b in zip(s_low, s_low[1:]))
    ok = ok and all(b < a for a, b in zip(x_low, x_low[1:]))

    high_grid = np.linspace(1.0 + 1e-9, C_LANDING, 200)
    s_high = [s_int(float(c)) for c in high_grid]
    x_high = [-x_int(float(c)) for c in high_grid]
    ok = ok and all(b < a for a, b in zip(x_high, x_high[1:]))
    diffs = np.sign(np.diff(s_high))
    pivot = int(np.argmin(s_high))
    ok = ok and all(d < 0 for d in diffs[:max(pivot - 1, 0)])
    ok = ok and all(d > 0 for d in diffs[pivot + 1:])
    c_min = _refine_minimum(s_int, float(high_grid[max(pivot - 1, 0)]),
                            float(high_grid[min(pivot + 1, 199)]))
    ok = ok and abs(c_min - C_ORTHOGONAL) <= 1e-4
    _report(5, "monotonicity of crossing time and abscissa", ok,
            f"interior minimum at c={c_min:.8f}")
    assert ok


def test_criterion_06_generate_and_invert():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst_c = worst_t = 0.0
    for _ in range(200):
        c = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
        phi = rng.uniform(-math.pi, math.pi)
        s = min(rng.uniform(0.05, 0.95) * s_int(abs(c)), 12.0)
        sol = solve(np.eye(2), lift(c, phi, 2.0 * s))
        worst_c = max(worst_c, abs(sol.c - c))
        worst_t = max(worst_t, abs(sol.t_f - 2.0 * s))
    elapsed = time.perf_counter() - start
    ok = worst_c <= 1e-6 and worst_t <= 1e-6 and elapsed < 10.0
    _report(6, "generate-and-invert oracle", ok,
            f"worst dc {worst_c:.2e}, dt {worst_t:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_07_cut_locus_classification():
    rng = np.random.default_rng(7)
    samples = [random_sl2(rng) for _ in range(8000)]
    for _ in range(1000):  # singular-circle stratum: the rotations
        samples.append(rotation(rng.uniform(0.1, 2.0 * math.pi - 0.1)))
    for _ in range(1000):  # negative-axis segment: conjugated -diag(l, 1/l)
        lam = math.exp(rng.uniform(0.0, 2.0))
        k = rotation(rng.uniform(-math.pi, math.pi))
        samples.append(k @ np.diag([-lam, -1.0 / lam]) @ k.T)
    mismatches = 0
    for x in samples:
        tag = classify_cut_locus(x)
        if tag is CutLocusClass.START_POINT:
            continue
        p = project(x)
        on_locus = (abs(p.radius_sq - 1.0) <= 1e-9
                    or (abs(p.y) <= 1e-9 and p.x <= -1.0 + 1e-9))
        flagged = tag in (CutLocusClass.SINGULAR_CIRCLE,
                          CutLocusClass.NEGATIVE_AXIS_SEGMENT)
        if flagged != on_locus:
            mismatches += 1
    ok = mismatches == 0
    _report(7, "cut-locus classification", ok,
            f"{len(samples)} samples, {mismatches} mismatches")
    assert ok


def test_criterion_08_su2_bridge():
    worst = max(landing_match_error(float(w)) for w in np.linspace(-5.0, 5.0, 100))
    dc0 = abs(c_of_omega(0.0) + 2.0 / math.sqrt(3.0))
    ok = worst <= 1e-9 and dc0 <= 1e-12
    _report(8, "su(2) landing correspondence", ok,
            f"worst match {worst:.2e}, c(0) defect {dc0:.2e}")
    assert ok


def test_criterion_09_automorphisms():
    rng = np.random.default_rng(99)

    def random_member():
        return assemble(Factorization(rng.uniform(-math.pi, math.pi),
                                      int(rng.integers(0, 3)),
                                      rng.uniform(-2.5, 2.5),
                                      rng.uniform(-math.pi, math.pi)))

    agreement = True
    for _ in range(500):
        m = random_member()
        agreement &= is_so12(m) and is_lie_automorphism(m)
    for _ in range(500):
        m = random_member() + rng.normal(0.0, 1e-2, (3, 3))
        agreement &= is_so12(m) == is_lie_automorphism(m)
        agreement &= not is_so12(m)

    round_trip = 0.0
    for _ in range(100):
        m = random_member()
        round_trip = max(round_trip, float(np.max(np.abs(assemble(factorize(m)) - m))))
        f = Factorization(rng.uniform(-math.pi, math.pi), int(rng.integers(0, 3)),
                          rng.uniform(-2.5, 2.5), rng.uniform(-math.pi, math.pi))
        realized = aut_matrix_from_group(realize(f))
        round_trip = max(round_trip, float(np.max(np.abs(realized - assemble(f)))))

    generators = 0.0
    for theta in np.linspace(-3.0, 3.0, 7):
        got = aut_matrix_from_group(rotation(0.5 * float(theta)))
        generators = max(generators, float(np.max(np.abs(got - lorentz_rotation(float(theta))))))
    for z in np.linspace(-2.0, 2.0, 7):
        k = np.array([[math.cosh(0.5 * z), math.sinh(0.5 * z)],
                      [math.sinh(0.5 * z), math.cosh(0.5 * z)]])
        generators = max(generators, float(np.max(np.abs(aut_matrix_from_group(k) - lorentz_boost(float(z))))))
    got = aut_matrix_from_group(np.diag([1.0, -1.0]))
    generators = max(generators, float(np.max(np.abs(got - np.diag([-1.0, -1.0, 1.0])))))

    ok = agreement and round_trip <= 1e-9 and generators <= 1e-12
    _report(9, "automorphism machinery", ok,
            f"round-trip {round_trip:.2e}, generators {generators:.2e}")
    assert ok


def test_criterion_10_fan_figure_contents():
    svg = figure_fan()
    found = sorted(float(m) for m in re.findall(r'data-c="(-?[0-9.]+)"', svg))
    expected = sorted(sign * c for c in (0.9, 0.95, 1.0, 1.03, 1.12,
                                         2.0 / math.sqrt(3.0),
                                         3.0 / (2.0 * math.sqrt(2.0)), 1.2, 1.5)
                      for sign in (1.0, -1.0))
    ok = len(found) == len(expected)
    ok = ok and all(abs(a - b) <= 1e-9 for a, b in zip(found, expected))
    worst = 0.0
    for match in re.finditer(
            r'<path data-c="(-?[0-9.]+)" fill="none" stroke="purple"[^>]*'
            r'd="M ([^"]+)"', svg):
        last = match.group(2).split(" L ")[-1]
        x, y = map(float, last.split(","))
        worst = max(worst, abs(math.hypot(x, y) - 1.0))
    purple_count = len(re.findall(r'stroke="purple"', svg))
    ok = ok and purple_count == 4 and worst <= 1e-6
    _report(10, "fan figure contents", ok,
            f"{len(found)} curves, purple landing defect {worst:.2e}")
    assert ok
