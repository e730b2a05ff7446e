"""Command-line interface.

Output is deterministic key=value text (one line per command unless
--pretty), with floats printed at a flag-controlled number of significant
digits.  Matrices are given as whitespace-separated reals, row-major.
Each subcommand accepts only the flags it reads.  Domain errors exit with
code 2; selftest failures with code 1.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .algebra import _matrix
from .figures import figure_svg
from .geodesics import planar_curve, s_int
from .quotient import project
from .selftest import run_selftests
from .su2 import c_of_omega, landing_match_error, su2_landing_time, su2_planar_geodesic
from .synthesis import classify_cut_locus, distance_to_class, solve
from .automorphisms import assemble, factorize, realize
from .types import Factorization


def _fmt(value: float, precision: int) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, f".{precision}g")


def _emit(pairs: list[tuple[str, str]], pretty: bool) -> None:
    if pretty:
        width = max(len(k) for k, _ in pairs)
        for key, val in pairs:
            print(f"{key.ljust(width)} = {val}")
    else:
        print(" ".join(f"{k}={v}" for k, v in pairs))


def _matrix_pairs(name: str, m: np.ndarray, precision: int) -> list[tuple[str, str]]:
    return [(f"{name}{i}{j}", _fmt(m[i, j], precision))
            for i in range(2) for j in range(2)]


def _cmd_project(args) -> int:
    p = project(_matrix(args.entries))
    print(f"x={_fmt(p.x, args.precision)} y={_fmt(p.y, args.precision)} "
          f"stratum={p.stratum}")
    return 0


def _cmd_solve(args) -> int:
    xi = _matrix(args.entries[:4])
    xf = _matrix(args.entries[4:])
    sol = solve(xi, xf)
    pairs = [("c", _fmt(sol.c, args.precision)),
             ("t_f", _fmt(sol.t_f, args.precision))]
    pairs += _matrix_pairs("P", sol.P, args.precision)
    pairs += _matrix_pairs("K", sol.K, args.precision)
    pairs += [("residual", _fmt(sol.residual, args.precision)),
              ("cut_flag", "true" if sol.on_cut_locus else "false")]
    _emit(pairs, args.pretty)
    return 0


def _cmd_dist(args) -> int:
    p = project(_matrix(args.entries))
    res = distance_to_class(p)
    _emit([("t_f", _fmt(res.t_f, args.precision)),
           ("c", _fmt(res.c, args.precision)),
           ("s", _fmt(res.s, args.precision)),
           ("cut_flag", "true" if res.on_cut_locus else "false")], args.pretty)
    return 0


def _cmd_path(args) -> int:
    s_max = s_int(args.c) if args.s_max == "auto" else float(args.s_max)
    n = args.n
    xy = planar_curve(args.c, s_max, n)
    rows = [0.0] * (3 * n)
    rows[0::3] = [s_max * i / (n - 1) for i in range(n)]
    rows[1::3] = xy[0::2]
    rows[2::3] = xy[1::2]
    # Every row is formatted by one % before the only write, so an error
    # leaves stdout empty.
    sys.stdout.write("s,x,y\n" + "%.17g,%.17g,%.17g\n" * n % tuple(rows))
    return 0


def _cmd_classify(args) -> int:
    tag = classify_cut_locus(_matrix(args.entries))
    print(f"class={tag.value}")
    return 0


def _cmd_figure(args) -> int:
    svg = figure_svg(args.which)
    if args.out == "-":
        sys.stdout.write(svg)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_su2(args) -> int:
    x, y = su2_planar_geodesic(args.omega, args.s)
    _emit([("x", _fmt(x, args.precision)),
           ("y", _fmt(y, args.precision)),
           ("c", _fmt(c_of_omega(args.omega), args.precision)),
           ("landing_s", _fmt(su2_landing_time(args.omega), args.precision)),
           ("match_err", _fmt(landing_match_error(args.omega), args.precision))],
          args.pretty)
    return 0


def _cmd_aut_factor(args) -> int:
    m = np.array(args.entries, dtype=float).reshape(3, 3)
    f = factorize(m)
    err = float(np.max(np.abs(assemble(f) - m)))
    _emit([("theta1", _fmt(f.theta1, args.precision)),
           ("branch", str(f.branch)),
           ("z", _fmt(f.z, args.precision)),
           ("theta2", _fmt(f.theta2, args.precision)),
           ("residual", _fmt(err, args.precision))], args.pretty)
    return 0


def _cmd_aut_realize(args) -> int:
    f = Factorization(args.theta1, args.branch, args.z, args.theta2)
    _emit(_matrix_pairs("K", realize(f), args.precision), args.pretty)
    return 0


def _cmd_selftest(args) -> int:
    return run_selftests()


class _Parser(argparse.ArgumentParser):
    """Reads every token float() accepts as a value, so -1e-3 and -inf are
    reals rather than unknown flags (argparse only knows -1 and -0.5)."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=int, default=12,
                           help="significant digits for printed reals")
    printed = argparse.ArgumentParser(add_help=False, parents=[precision])
    printed.add_argument("--pretty", action="store_true",
                         help="multi-line output instead of one key=value line")

    parser = _Parser(
        prog="sl2geo",
        description="Sub-Riemannian geodesics on SL(2,R) via the planar quotient.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", parents=[precision],
                       help="class coordinates of a group element")
    p.add_argument("entries", type=float, nargs=4, metavar="X")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("solve", parents=[printed],
                       help="minimizing geodesic between two group elements")
    p.add_argument("entries", type=float, nargs=8, metavar="X")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dist", parents=[printed],
                       help="sub-Riemannian distance from the identity")
    p.add_argument("entries", type=float, nargs=4, metavar="X")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("path", help="CSV samples of a planar geodesic")
    p.add_argument("c", type=float)
    p.add_argument("s_max", help="end of the parameter range, or 'auto'")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("classify", help="cut-locus class of a group element")
    p.add_argument("entries", type=float, nargs=4, metavar="X")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("figure", help="emit an SVG figure")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("su2", parents=[printed],
                       help="SU(2) planar geodesic and parameter bridge")
    p.add_argument("omega", type=float)
    p.add_argument("s", type=float)
    p.set_defaults(func=_cmd_su2)

    p = sub.add_parser("aut-factor", parents=[printed],
                       help="factor a Lorentz matrix through the generators")
    p.add_argument("entries", type=float, nargs=9, metavar="M")
    p.set_defaults(func=_cmd_aut_factor)

    p = sub.add_parser("aut-realize", parents=[printed],
                       help="group element realizing a factorization")
    p.add_argument("theta1", type=float)
    p.add_argument("branch", type=int, choices=(0, 1, 2))
    p.add_argument("z", type=float)
    p.add_argument("theta2", type=float)
    p.set_defaults(func=_cmd_aut_realize)

    p = sub.add_parser("selftest", help="run the reduced invariant suites")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # GeometryError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
