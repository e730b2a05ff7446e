"""The benchmark's workloads: seeded inputs, the timed call, the answer check.

Each workload turns a seed into a list of operations before any timing
starts.  An operation carries the stratum it was drawn from, the arguments
the library receives and the forward-generated truth its answer is checked
against.  The library sees only the finished arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass

import numpy as np

import oracle
import sl2geo
import sl2geo.cli


@dataclass(frozen=True)
class Op:
    stratum: str
    args: tuple
    truth: tuple


def _jittered_grid(rng: random.Random, n: int) -> list[tuple[float, float]]:
    # n points (u, v) in the unit square, one uniform draw in each cell of
    # an a x b grid (a b = n), in random order.  Each point is uniform, but
    # the share of points in any region barely moves between seeds, which
    # keeps the branch mix, and so the timings, steady.
    a = next(k for k in range(math.isqrt(n), 0, -1) if n % k == 0)
    b = n // a
    cells = [((i + rng.random()) / a, (j + rng.random()) / b)
             for i in range(a) for j in range(b)]
    rng.shuffle(cells)
    return cells


def _planar_ok(c: float, s: float, target: tuple[float, float]) -> bool:
    px, py = oracle.planar_point(c, s)
    x, y = target
    return math.hypot(px - x, py - y) <= oracle.ANSWER_TOL * max(1.0, math.hypot(x, y))


class SolveMixed:
    """solve(Xi, Xf) on generate-and-invert pairs with a random Xi."""

    name = "solve_mixed"
    n_ops = 1200

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for u_c, u_s in _jittered_grid(rng, self.n_ops):
            c = rng.choice((-1.0, 1.0)) * (0.05 + 2.45 * u_c)
            phi = rng.uniform(-math.pi, math.pi)
            s = min((0.05 + 0.9 * u_s) * oracle.horizon(c), 12.0)
            v = [rng.gauss(0.0, 0.7) for _ in range(3)]
            xi = oracle.expm_traceless(((0.5 * v[2], 0.5 * (v[1] - v[0])),
                                        (0.5 * (v[0] + v[1]), -0.5 * v[2])))
            xf = oracle.matmul(oracle.lift_with_direction(c, oracle.direction(phi), 2.0 * s), xi)
            ops.append(Op("generate_and_invert", (np.array(xi), np.array(xf)),
                          (2.0 * s, oracle.planar_point(c, s), xi, xf)))
        return ops

    @staticmethod
    def call(args):
        return sl2geo.solve(*args)

    @staticmethod
    def check(op: Op, sol) -> bool:
        t_f, target, xi, xf = op.truth
        if abs(sol.t_f - t_f) > oracle.ANSWER_TOL:
            return False
        if not _planar_ok(sol.c, 0.5 * sol.t_f, target):
            return False
        p = tuple(tuple(float(v) for v in row) for row in sol.P)
        recon = oracle.matmul(oracle.lift_with_direction(sol.c, p, sol.t_f), xi)
        err = oracle.frobenius(tuple(tuple(a - b for a, b in zip(ra, rb))
                                     for ra, rb in zip(recon, xf)))
        scale = max(1.0, oracle.frobenius(oracle.matmul(xf, oracle.inverse_sl2(xi))))
        return err <= oracle.SYNTH_TOL * scale


# Strata of the planar quotient and their weights in one pass.  The weights
# keep the fast closed-form strata (landing, positive axis) at about a third
# of the operations, so the median latency sits inside the root-solving
# mode rather than in the gap between the two.
_PLANAR_STRATA = (
    ("axis_cut", 2),
    ("landing", 1),
    ("positive_axis", 1),
    ("horizon_crossing", 2),
    ("horizon_landing", 1),
    ("horizon_orthogonal", 1),
)


class PlanarStrata:
    """distance_to_class on targets on the strata boundaries of the plane."""

    name = "planar_strata"
    n_ops = 600

    # The before-horizon strata carry the defects measured when the
    # benchmark was defined: near r = 3 the falling-branch search raises
    # NoRootError or returns crossing times off by up to ~2e-5 (mostly in
    # horizon_orthogonal, rarely in horizon_crossing), and horizon_landing
    # targets inside the singular band of the circle get the landing time,
    # off by up to ~3e-5.  Their failures count in `failed` like any other;
    # a failure in any other stratum marks the run incorrect.
    known_defects = frozenset({"horizon_crossing", "horizon_landing", "horizon_orthogonal"})

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        total = sum(w for _, w in _PLANAR_STRATA)
        ops = []
        for stratum, weight in _PLANAR_STRATA:
            m = self.n_ops * weight // total
            draw = getattr(self, "_" + stratum)
            for u in _jittered_grid(rng, m):
                ops.append(draw(rng, *u))
        rng.shuffle(ops)
        return ops

    # Each stratum maps a jittered-grid point (u, v) and random signs to
    # a target and its truth.

    @staticmethod
    def _op(stratum: str, x: float, y: float, t_f: float) -> Op:
        return Op(stratum, (sl2geo.QuotientPoint(x, y),), (t_f, (x, y)))

    @staticmethod
    def _sign(rng) -> float:
        return rng.choice((-1.0, 1.0))

    def _axis_cut(self, rng, u, v):
        # (x_int(c), 0): the negative-axis cut segment, 1 < r < ~50.
        h = oracle.horizon(c := 0.4 + (oracle.C_LANDING - 0.4) * u)
        return self._op("axis_cut", -math.hypot(*oracle.planar_point(c, h)), 0.0, 2.0 * h)

    def _landing(self, rng, u, v):
        c = self._sign(rng) * (oracle.C_LANDING + 0.01 + (2.49 - oracle.C_LANDING) * u)
        return self._op("landing", *oracle.landing_point(c), 2.0 * oracle.horizon(c))

    def _positive_axis(self, rng, u, v):
        s = 0.05 + 11.95 * u
        return self._op("positive_axis", math.cosh(s), 0.0, 2.0 * s)

    def _before_horizon(self, stratum: str, c: float, v: float):
        # s = s_int(c) (1 - delta), delta log-uniform in [1e-10, 1e-2].
        s = oracle.horizon(c) * (1.0 - 10.0 ** (-10.0 + 8.0 * v))
        return self._op(stratum, *oracle.planar_point(c, s), 2.0 * s)

    def _horizon_crossing(self, rng, u, v):
        c = self._sign(rng) * (0.4 + (oracle.C_LANDING - 0.4) * u)
        return self._before_horizon("horizon_crossing", c, v)

    def _horizon_landing(self, rng, u, v):
        c = self._sign(rng) * (oracle.C_LANDING + 0.01 + (2.49 - oracle.C_LANDING) * u)
        return self._before_horizon("horizon_landing", c, v)

    def _horizon_orthogonal(self, rng, u, v):
        # c at a relative distance eps from the orthogonal crossing, eps
        # log-uniform in [1e-9, 1e-3] with either sign: the targets approach
        # (-3, 0) from both sides in x and y.
        eps = self._sign(rng) * 10.0 ** (-9.0 + 6.0 * u)
        c = self._sign(rng) * oracle.C_ORTHOGONAL * (1.0 + eps)
        return self._before_horizon("horizon_orthogonal", c, v)

    @staticmethod
    def call(args):
        return sl2geo.distance_to_class(*args)

    @staticmethod
    def check(op: Op, res) -> bool:
        t_f, target = op.truth
        return (abs(res.t_f - t_f) <= oracle.ANSWER_TOL
                and _planar_ok(res.c, res.s, target))


# The figures as the paper draws them: figure 1 fans these |c| with both
# signs; figure 2 draws these landing geodesics and the converged one;
# figure 3 draws these SU(2) geodesics and reachable-set boundaries.
_FIG1_C = (0.9, 0.95, 1.0, 1.03, 1.12, oracle.C_LANDING, oracle.C_ORTHOGONAL, 1.2, 1.5)
_FIG2_C = (oracle.C_LANDING, 3.0 / math.sqrt(5.0), 1.248171, 1.294906)
_FIG3_OMEGA = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)
_FIG3_S = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_SAMPLES = 400
_BOUNDARY_SAMPLES = 256

_PATH_RE = re.compile(r'<path data-(c|omega|s)="([^"]+)" [^>]*d="M ([^"]+)"/>')
_POINT_TOL = 1e-8


def _svg_paths(svg: str) -> list[tuple[str, float, list[tuple[float, float]]]]:
    out = []
    for kind, value, d in _PATH_RE.findall(svg):
        pts = []
        for pair in d.split(" L "):
            x, y = pair.split(",")
            pts.append((float(x), -float(y)))  # SVG y grows downward
        out.append((kind, float(value), pts))
    return out


def _near(p, q) -> bool:
    return math.hypot(p[0] - q[0], p[1] - q[1]) <= _POINT_TOL * max(1.0, math.hypot(*q))


def _geodesic_drawn(c: float, s_max: float, pts) -> bool:
    n = len(pts)
    return n == _SAMPLES and all(
        _near(p, oracle.planar_point(c, s_max * i / (n - 1))) for i, p in enumerate(pts))


def _exact(got, want):
    """The values of `want` that the printed `got` round, in `got` order, or
    None unless they pair up one to one.  The geodesics are checked at the
    exact parameters: near 2/sqrt(3) the horizon is too sensitive to c to
    recompute from 12 printed decimals."""
    pool = list(want)
    out = []
    for g in got:
        match = next((w for w in pool if abs(g - w) <= 1e-11), None)
        if match is None:
            return None
        pool.remove(match)
        out.append(match)
    return out if not pool else None


def _check_figure1(svg: str) -> bool:
    paths = _svg_paths(svg)
    exact = _exact([v for _, v, _ in paths], [s * c for c in _FIG1_C for s in (1.0, -1.0)])
    return exact is not None and all(
        _geodesic_drawn(c, oracle.horizon(c), pts) for c, (_, _, pts) in zip(exact, paths))


def _check_figure2(svg: str) -> bool:
    paths = _svg_paths(svg)
    values = [v for _, v, _ in paths]
    if len(values) != 5 or abs(values[-1] - oracle.WORKED_EXAMPLE_C) > oracle.ANSWER_TOL:
        return False
    exact = _exact(values[:-1], _FIG2_C)
    return exact is not None and all(
        _geodesic_drawn(c, oracle.horizon(c), pts)
        for c, (_, _, pts) in zip(exact + values[-1:], paths))


def _check_figure3(svg: str) -> bool:
    paths = _svg_paths(svg)
    geos = [(v, pts) for kind, v, pts in paths if kind == "omega"]
    bounds = [(v, pts) for kind, v, pts in paths if kind == "s"]
    if (_exact([v for v, _ in geos], _FIG3_OMEGA) is None
            or _exact([v for v, _ in bounds], _FIG3_S) is None):
        return False
    for omega, pts in geos:
        land = oracle.su2_landing_time(omega)
        if len(pts) != _SAMPLES or not all(
                _near(p, oracle.su2_point(omega, land * i / (_SAMPLES - 1)))
                for i, p in enumerate(pts)):
            return False
    for s, pts in bounds:
        if len(pts) != _BOUNDARY_SAMPLES:
            return False
        for i, p in enumerate(pts):
            omega = math.tan(-0.5 * math.pi + math.pi * (i + 0.5) / _BOUNDARY_SAMPLES)
            if not _near(p, oracle.su2_point(omega, min(s, oracle.su2_landing_time(omega)))):
                return False
    return True


def _check_path(c: float, n: int, csv: str) -> bool:
    lines = csv.splitlines()
    if len(lines) != n + 1 or lines[0] != "s,x,y":
        return False
    s_max = oracle.horizon(c)
    for i, line in enumerate(lines[1:]):
        s, x, y = (float(v) for v in line.split(","))
        if abs(s - s_max * i / (n - 1)) > _POINT_TOL * max(1.0, s_max):
            return False
        if not _near((x, y), oracle.planar_point(c, s)):
            return False
    return True


class Render:
    """The CLI's figure and path commands, in process, stdout captured."""

    name = "render"
    n_paths = 5

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = [Op(f"figure{k}", (["figure", str(k)],), (k,)) for k in (1, 2, 3)]
        # Paths cycle through the regimes: hyperbolic, axis-crossing
        # trigonometric, landing.
        bands = ((0.3, 1.0), (1.0, oracle.C_LANDING - 0.01), (oracle.C_LANDING + 0.01, 2.5))
        for i in range(self.n_paths):
            lo, hi = bands[i % len(bands)]
            c = float(f"{rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi):.6f}")
            ops.append(Op("path", (["path", repr(c), "auto", str(_SAMPLES)],), (c,)))
        rng.shuffle(ops)
        return ops

    def __init__(self):
        self._seen: dict[tuple, tuple[str, bool]] = {}

    @staticmethod
    def call(args):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = sl2geo.cli.main(*args)
        return code, sink.getvalue()

    def check(self, op: Op, result) -> bool:
        # Outputs are deterministic: the first output of each operation is
        # checked point by point against the oracle, later ones must repeat
        # it byte for byte.
        code, text = result
        key = (op.stratum, op.truth)
        if key not in self._seen:
            if op.stratum == "path":
                ok = _check_path(op.truth[0], _SAMPLES, text)
            else:
                ok = (_check_figure1, _check_figure2, _check_figure3)[op.truth[0] - 1](text)
            self._seen[key] = (text, ok)
        first, ok = self._seen[key]
        return code == 0 and ok and text == first


WORKLOADS = {w.name: w for w in (SolveMixed, PlanarStrata, Render)}
