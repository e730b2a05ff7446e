import argparse
import importlib
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import sl2geo.quotient
from sl2geo import figures, selftest
from sl2geo.cli import _build_parser, main
from sl2geo.figures import (FAN_C_VALUES, FIG3_OMEGAS, FIG3_TIMES, _fmt, _path,
                            _path_pair, figure_svg)
from sl2geo.geodesics import C_LANDING, landing_time, planar_geodesic, s_int
from sl2geo.su2 import su2_landing_time, su2_planar_geodesic
from sl2geo.synthesis import distance_to_class
from sl2geo.types import QuotientPoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(line):
    return dict(item.split("=", 1) for item in line.strip().split())


class TestProjectCommand:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "project", "1", "0", "0", "1")
        assert code == 0
        assert out.strip() == "x=1 y=0 stratum=singular"

    def test_reference_class(self, capsys):
        code, out, _ = run(capsys, "project", "-1", "2", "-1", "1")
        assert code == 0
        assert out.strip() == "x=0 y=1.5 stratum=regular"

    def test_non_unimodular_exits_2(self, capsys):
        code, _, err = run(capsys, "project", "1", "0", "0", "0.5")
        assert code == 2
        assert "det" in err

    def test_singular_huge_entries_exit_2(self, capsys):
        # det 0, and every product of entries overflows: the determinant
        # cannot be checked, so the matrix is not taken as unimodular.
        code, out, err = run(capsys, "project", "--", "1e160", "1e160", "1e160", "1e160")
        assert code == 2
        assert out == ""
        assert "det = nan" in err


class TestSolveCommand:
    def test_reference_example(self, capsys):
        code, out, _ = run(capsys, "solve", "0", "-1", "1", "0",
                           "2", "1", "1", "1")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["c"]) == pytest.approx(1.2575651629, abs=1e-9)
        assert float(kv["t_f"]) == pytest.approx(5.562322269, abs=1e-8)
        assert float(kv["residual"]) < 1e-9
        assert kv["cut_flag"] == "false"
        for key in ("P00", "P01", "P10", "P11", "K00", "K01", "K10", "K11"):
            assert key in kv

    def test_endpoints_outside_sl2_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "2", "0", "0", "1",
                             "0.5", "0", "0", "1")
        assert code == 2
        assert out == ""
        assert "det" in err

    def test_trivial_axis_solve(self, capsys):
        b = math.sinh(0.5)
        a = math.cosh(0.5)
        code, out, _ = run(capsys, "solve", "1", "0", "0", "1",
                           str(a), str(b), str(b), str(a))
        kv = parse_kv(out)
        assert code == 0
        assert float(kv["c"]) == 0.0
        assert float(kv["t_f"]) == pytest.approx(1.0, abs=1e-10)

    def test_cut_target_flagged(self, capsys):
        code, out, _ = run(capsys, "solve", "1", "0", "0", "1",
                           "0", "1", "-1", "0")
        kv = parse_kv(out)
        assert code == 0
        assert kv["cut_flag"] == "true"

    def test_singular_band_target(self, capsys):
        # x^2 + y^2 - 1 = 5.0e-10, inside the singular band, with a
        # symmetric part of size 2.2e-5 that fixes the rotation.
        code, out, err = run(capsys, "solve", "1", "0", "0", "1",
                             "0.8775946436366115", "0.4794443545872906",
                             "-0.4794067228608282", "0.8775704805829252")
        assert (code, err) == (0, "")
        kv = parse_kv(out)
        assert float(kv["residual"]) <= 1e-6
        assert kv["cut_flag"] == "true"

    @pytest.mark.parametrize("m", ["1e-18", "1e-310"])
    def test_near_rotation_lands_as_the_rotation(self, capsys, m):
        # A symmetric part of size m <= ROTATION_FLOOR is rounding: the target
        # lands as the exact rotation does, subnormal m included.
        code, out, err = run(capsys, "solve", "1", "0", "0", "1", m, "-1", "1", f"-{m}")
        assert (code, err) == (0, "")
        _, exact, _ = run(capsys, "solve", "1", "0", "0", "1", "0", "-1", "1", "0")
        fields = ("c", "t_f", "cut_flag")
        assert [parse_kv(out)[k] for k in fields] == [parse_kv(exact)[k] for k in fields]

    def test_pretty_multiline(self, capsys):
        code, out, _ = run(capsys, "solve", "--pretty", "1", "0", "0", "1",
                           "0", "1", "-1", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 12  # one field per line

    def test_verify_round_trip(self, capsys):
        # The printed solution, re-lifted, reproduces the endpoint to print
        # precision.
        code, out, _ = run(capsys, "solve", "0", "-1", "1", "0",
                           "2", "1", "1", "1")
        kv = parse_kv(out)
        import sl2geo
        p = np.array([[float(kv["P00"]), float(kv["P01"])],
                      [float(kv["P10"]), float(kv["P11"])]])
        recon = sl2geo.lift_with_direction(float(kv["c"]), p, float(kv["t_f"]))
        recon = recon @ np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.max(np.abs(recon - np.array([[2.0, 1.0], [1.0, 1.0]]))) < 1e-9


class TestDistCommand:
    def test_positive_axis(self, capsys):
        a = math.cosh(0.5)
        b = math.sinh(0.5)
        code, out, _ = run(capsys, "dist", str(a), str(b), str(b), str(a))
        kv = parse_kv(out)
        assert code == 0
        assert float(kv["t_f"]) == pytest.approx(1.0, abs=1e-10)
        assert float(kv["c"]) == 0.0

    def test_unreachable_never_happens_for_group_elements(self, capsys):
        # group elements always project outside the disc; a start-point
        # target is the only failure mode
        code, _, err = run(capsys, "dist", "1", "0", "0", "1")
        assert code == 2
        assert "start point" in err

    def test_rotation_near_start_lands(self, capsys):
        # classify puts this 1e-9 rad rotation on the singular circle; dist
        # agrees, with the landing distance 2 sqrt(beta (2 pi + beta)).
        entries = ("1.0000000000000002", "1e-9", "-1e-9", "1.0000000000000002")
        assert run(capsys, "classify", *entries)[1] == "class=SingularCircle\n"
        code, out, _ = run(capsys, "dist", *entries)
        kv = parse_kv(out)
        assert (code, kv["cut_flag"]) == (0, "true")
        assert float(kv["t_f"]) == pytest.approx(1.5853e-4, rel=1e-2)


class TestPathCommand:
    def test_axis_two_rows(self, capsys):
        code, out, _ = run(capsys, "path", "0", "1", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,x,y"
        assert lines[1] == "0,1,0"
        assert lines[2].startswith("1,1.5430806348152437")

    def test_auto_horizon_lands_on_circle(self, capsys):
        code, out, _ = run(capsys, "path", "1.2", "auto", "100")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        x, y = float(last[1]), float(last[2])
        assert x * x + y * y == pytest.approx(1.0, abs=1e-8)

    def test_mirror_outputs(self, capsys):
        _, up, _ = run(capsys, "path", "0.9", "3", "20")
        _, down, _ = run(capsys, "path", "-0.9", "3", "20")
        for a, b in zip(up.splitlines()[1:], down.splitlines()[1:]):
            sa, xa, ya = a.split(",")
            sb, xb, yb = b.split(",")
            assert (sa, xa) == (sb, xb)
            assert float(ya) == -float(yb) or (ya == yb == "0")

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "path", "1.0", "1.0", "1")
        assert code == 2


class TestClassifyCommand:
    @pytest.mark.parametrize("entries, expected", [
        (("0", "1", "-1", "0"), "SingularCircle"),
        (("-2", "1", "1", "-1"), "NegativeAxisSegment"),
        (("2", "1", "1", "1"), "Regular"),
        (("1", "0", "0", "1"), "StartPoint"),
    ])
    def test_classes(self, capsys, entries, expected):
        code, out, _ = run(capsys, "classify", *entries)
        assert code == 0
        assert out.strip() == f"class={expected}"


class TestSu2Command:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "su2", "0", "1.5707963267948966")
        kv = parse_kv(out)
        assert code == 0
        assert float(kv["x"]) == pytest.approx(0.0, abs=1e-12)
        assert float(kv["c"]) == pytest.approx(-2.0 / math.sqrt(3.0), abs=1e-12)
        assert float(kv["match_err"]) < 1e-9

    @pytest.mark.parametrize("omega", ["1e10", "-1e10"])
    def test_huge_omega(self, capsys, omega):
        # Here the unfactored form of c(omega) has a denominator that rounds to 0.
        code, out, err = run(capsys, "su2", omega, "0.1")
        assert (code, err) == (0, "")
        c = float(parse_kv(out)["c"])
        assert math.isfinite(c)
        assert c == pytest.approx(-float(omega), rel=1e-12)

    def test_omega_beyond_squaring(self, capsys):
        # 1 + omega^2 overflows here, but omega s = 1e-40: the point is (1, 0).
        code, out, err = run(capsys, "su2", "1e160", "1e-200")
        assert (code, err) == (0, "")
        kv = parse_kv(out)
        assert (kv["x"], kv["y"], kv["c"]) == ("1", "0", "-1e+160")
        assert float(kv["landing_s"]) == pytest.approx(math.pi / 1e160, rel=1e-11)
        assert float(kv["match_err"]) <= 1e-15


class TestAutCommands:
    def test_factor_round_trip(self, capsys):
        import sl2geo
        m = sl2geo.assemble(sl2geo.Factorization(0.4, 2, -0.9, 2.1))
        args = [str(v) for v in m.flatten()]
        code, out, _ = run(capsys, "aut-factor", *args)
        kv = parse_kv(out)
        assert code == 0
        assert float(kv["residual"]) < 1e-10
        code, out, _ = run(capsys, "aut-realize", kv["theta1"],
                           kv["branch"], kv["z"], kv["theta2"])
        assert code == 0
        kmat = parse_kv(out)
        k = np.array([[float(kmat["K00"]), float(kmat["K01"])],
                      [float(kmat["K10"]), float(kmat["K11"])]])
        assert np.max(np.abs(sl2geo.aut_matrix_from_group(k) - m)) < 1e-9

    def test_factor_rejects_non_member(self, capsys):
        code, _, err = run(capsys, "aut-factor", "1", "0", "0",
                           "0", "2", "0", "0", "0", "1")
        assert code == 2


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, first, _ = run(capsys, "solve", "0", "-1", "1", "0", "2", "1", "1", "1")
        _, second, _ = run(capsys, "solve", "0", "-1", "1", "0", "2", "1", "1", "1")
        assert first == second

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "dist", "--precision", "4",
                        str(math.cosh(0.5)), str(math.sinh(0.5)),
                        str(math.sinh(0.5)), str(math.cosh(0.5)))
        assert parse_kv(out)["s"] == "0.5"


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(opt for action in parser._actions
                              for opt in action.option_strings
                              if opt not in ("-h", "--help"))
                 for name, parser in sub.choices.items()}
        printed = ["--precision", "--pretty"]
        assert flags == {
            "project": ["--precision"], "solve": printed, "dist": printed,
            "path": [], "classify": [], "figure": ["--out"], "su2": printed,
            "aut-factor": printed, "aut-realize": printed, "selftest": [],
        }

    @pytest.mark.parametrize("argv", [
        ("figure", "1", "--precision", "5"),
        ("solve", "0", "-1", "1", "0", "2", "1", "1", "1", "--tol-root", "1e-3"),
        ("solve", "0", "-1", "1", "0", "2", "1", "1", "1", "--tol-synth", "1e-3"),
        ("dist", "2", "1", "1", "1", "--tol-root", "1e-3"),
        ("path", "1.2", "auto", "10", "--tol-root", "1e-3"),
        ("project", "1", "0", "0", "1", "--pretty"),
        ("classify", "2", "1", "1", "1", "--precision", "3"),
    ])
    def test_unread_flags_rejected(self, capsys, argv):
        flag = next(arg for arg in argv if arg.startswith("--"))
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["project", "classify", "dist"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_exits_2(self, capsys, command, value):
        code, out, err = run(capsys, command, value, "0", "0", "1")
        assert code == 2
        assert out == ""
        assert "not all finite" in err

    @pytest.mark.parametrize("argv, message", [
        (("path", "nan", "auto", "5"), "c = nan is not finite"),
        (("path", "inf", "auto", "5"), "c = inf is not finite"),
        (("path", "-inf", "auto", "5"), "c = -inf is not finite"),
        (("path", "nan", "1", "5"), "c = nan is not finite"),
        (("path", "1", "inf", "5"), "overflows the grid"),
        (("path", "1", "1e308", "3"), "overflows the grid"),
        (("su2", "nan", "1"), "omega = nan is not finite"),
        (("su2", "-inf", "0"), "omega = -inf is not finite"),
        (("su2", "1", "inf"), "s = inf is not finite"),
        (("path", "1e308", "1", "3"), "c = 1e+308 with s_max = 1.0 overflows the geodesic"),
        (("path", "1e200", "2", "3"), "c = 1e+200 with s_max = 2.0 overflows the geodesic"),
        (("path", "0.5", "1000", "3"), "c = 0.5 with s_max = 1000.0 overflows the geodesic"),
        (("su2", "1e308", "10"), "omega = 1e+308 with s = 10.0 overflows the geodesic"),
        (("su2", "1e200", "1e200"), "omega = 1e+200 with s = 1e+200 overflows the geodesic"),
        (("path", "1e160", "auto", "3"),
         "c = 1e+160 with s_max = 3.141592653589793e-160 overflows the geodesic"),
        (("path", "5e-324", "auto", "10"), "c = 5e-324 with s = inf overflows the geodesic"),
        (("path", "4.707403601354601e-90", "auto", "3"),
         "c = 4.707403601354601e-90 with s_max = 6.673727004597119e+89 overflows the geodesic"),
        (("aut-realize", "nan", "0", "0", "0"), "theta1 = nan is not finite"),
        (("aut-realize", "0", "1", "inf", "0"), "z = inf is not finite"),
        (("aut-realize", "0", "2", "0", "-inf"), "theta2 = -inf is not finite"),
    ])
    def test_path_and_su2_arguments(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_realize_overflow_exits_2(self, capsys):
        code, out, err = run(capsys, "aut-realize", "0", "0", "1500", "0")
        assert (code, out) == (2, "")
        assert "cosh(750.0) overflows" in err


class TestExponentFormReals:
    """Negative reals in exponent form are values, not unknown flags."""

    def test_project(self, capsys):
        code, out, _ = run(capsys, "project", "-1e-3", "1", "-1", "0")
        assert code == 0
        assert out == "x=-0.0005 y=1 stratum=regular\n"

    @pytest.mark.parametrize("exponent, plain", [
        (("solve", "0", "-1e0", "1", "0", "2", "1", "1", "1"),
         ("solve", "0", "-1", "1", "0", "2", "1", "1", "1")),
        (("path", "-9e-1", "3", "20"), ("path", "-0.9", "3", "20")),
        (("aut-realize", "-7e-1", "0", "-1E-1", "0", "--pretty"),
         ("aut-realize", "-0.7", "0", "-0.1", "0", "--pretty")),
        (("project", "--precision", "3", "-1e-3", "1", "-1", "0"),
         ("project", "--precision", "3", "-0.001", "1", "-1", "0")),
    ], ids=["solve", "path", "aut-realize", "project-flag-first"])
    def test_same_output_as_plain_form(self, capsys, exponent, plain):
        code, out, _ = run(capsys, *exponent)
        assert code == 0
        assert (code, out) == run(capsys, *plain)[:2]

    def test_flags_still_parsed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["project", "-1e-3", "1", "-1", "0", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestFigureCommand:
    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "fan.svg"
        code, _, _ = run(capsys, "figure", "1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("<?xml")

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "figure", "3")
        assert code == 0
        assert "</svg>" in out

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure", "1", "--out",
                           str(tmp_path / "missing" / "fan.svg"))
        assert code == 2


class TestFigures:
    def test_fan_deterministic(self):
        assert figure_svg(1) == figure_svg(1)

    def test_worked_example_contains_iterates(self):
        svg = figure_svg(2)
        cs = [float(m) for m in re.findall(r'data-c="([-0-9.]+)"', svg)]
        assert any(abs(c - 1.248171) < 1e-9 for c in cs)
        assert any(abs(c - 1.294906) < 1e-9 for c in cs)
        assert any(abs(c - 1.2575651629) < 1e-6 for c in cs)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure 4; expected 1, 2 or 3"):
            figure_svg(4)

    def test_su2_figure_points_inside_disc(self):
        svg = figure_svg(3)
        for match in re.finditer(r'd="M ([^"]+)"', svg):
            for pair in match.group(1).split(" L "):
                x, y = map(float, pair.split(","))
                assert x * x + y * y <= 1.0 + 1e-9


_SELFTEST_MODULES = ("algebra", "quotient", "geodesics", "synthesis", "su2",
                     "automorphisms")


def _scaled(original):
    # A relative error of 1e-9 in every result.
    return lambda *args: original(*args) * (1.0 + 1e-9)


def _longer_t_f(original):
    def wrong(p):
        res = original(p)
        return res._replace(t_f=res.t_f * (1.0 + 1e-9))
    return wrong


def _transposed(original):
    return lambda m: original(np.asarray(m).T)


class TestSelftestCommand:
    def test_clean_build_exits_0(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out == "".join(f"PASS {module}\n" for module in _SELFTEST_MODULES)

    def _only_failure(self, capsys, module):
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"{'FAIL' if name == module else 'PASS'} {name}" for name in _SELFTEST_MODULES]

    def test_injected_christoffel_fault_detected(self, capsys, monkeypatch):
        original = sl2geo.quotient.christoffel

        def broken(p):
            gamma = original(p)
            gamma[1, 0, 0] = -gamma[1, 0, 0]
            return gamma

        monkeypatch.setattr(sl2geo.quotient, "christoffel", broken)
        self._only_failure(capsys, "quotient")

    @pytest.mark.parametrize("module, name, fault", [
        ("algebra", "bracket", _scaled),
        ("geodesics", "s_int", _scaled),
        ("synthesis", "distance_to_class", _longer_t_f),
        ("su2", "c_of_omega", _scaled),
        ("automorphisms", "factorize", _transposed),
    ])
    def test_injected_fault_fails_its_module_only(self, capsys, monkeypatch, module,
                                                   name, fault):
        target = importlib.import_module(f"sl2geo.{module}")
        monkeypatch.setattr(target, name, fault(getattr(target, name)))
        self._only_failure(capsys, module)

    def test_raising_check_fails_its_module_only(self, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(sl2geo.su2, "c_of_omega", broken)
        lines = []
        assert selftest.run_selftests(out=lines.append) == 1
        assert lines == ["FAIL su2: raised ZeroDivisionError: injected" if name == "su2"
                         else f"PASS {name}" for name in _SELFTEST_MODULES]

    def test_runtime_budget(self):
        import time
        start = time.perf_counter()
        assert selftest.run_selftests(out=lambda *_: None) == 0
        assert time.perf_counter() - start < 60.0


def _svg_paths(svg, kind="c"):
    return re.findall(rf'<path data-{kind}="([^"]+)" [^>]*d="M ([^"]+)"/>', svg)


def _grid(s_max, n=400):
    return [s_max * i / (n - 1) for i in range(n)]


def _formatted(points):
    # Per-coordinate formatting, as the figures drew each point before they
    # formatted a whole path at once.
    return " L ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)


def _planar_formatted(c, s_max):
    # Per-point planar_geodesic on the figures' grid, not the grid sampler
    # the figures call, so the test does not check that code against itself.
    return _formatted(planar_geodesic(c, s) for s in _grid(s_max))


def _boundary_formatted(s, n=256):
    # Per-point su2_planar_geodesic at each sweep parameter, clipped at its
    # landing time, not the sweep figure 3 shares between its boundaries.
    points = []
    for i in range(n):
        omega = math.tan(-0.5 * math.pi + math.pi * (i + 0.5) / n)
        points.append(su2_planar_geodesic(omega, min(s, su2_landing_time(omega))))
    return _formatted(points)


class TestOutputEquivalence:
    """The grid samplers and the one-% formatting of a whole path or CSV
    give exactly the bytes of per-point evaluation formatted per row or per
    coordinate."""

    @pytest.mark.parametrize("argv", [
        ("0", "1", "2"), ("0.9", "3", "20"), ("-0.779765", "auto", "400"),
        ("1.066617", "auto", "400"), ("1.829843", "auto", "400"), ("1e-3", "2", "7"),
    ])
    def test_path_rows(self, capsys, argv):
        c, n = float(argv[0]), int(argv[2])
        s_max = s_int(c) if argv[1] == "auto" else float(argv[1])
        rows = ""
        for s in _grid(s_max, n):
            p = planar_geodesic(c, s)
            rows += f"{s:.17g},{p.x:.17g},{p.y:.17g}\n"
        assert run(capsys, "path", *argv) == (0, "s,x,y\n" + rows, "")

    def test_figure1_paths(self):
        paths = _svg_paths(figure_svg(1))
        assert len(paths) == len(FAN_C_VALUES)
        for (c, _), (label, d) in zip(FAN_C_VALUES, paths):
            assert label == _fmt(c)
            assert d == _planar_formatted(c, s_int(c))

    def test_figure2_paths(self):
        converged = distance_to_class(QuotientPoint(0.0, 1.5)).c
        cs = (C_LANDING, 3.0 / math.sqrt(5.0), 1.248171, 1.294906, converged)
        paths = _svg_paths(figure_svg(2))
        assert [label for label, _ in paths] == [_fmt(c) for c in cs]
        for c, (_, d) in zip(cs, paths):
            assert d == _planar_formatted(c, landing_time(c))

    def test_figure3_paths(self):
        svg = figure_svg(3)
        geodesics = _svg_paths(svg, "omega")
        assert [label for label, _ in geodesics] == [_fmt(w) for w in FIG3_OMEGAS]
        for omega, (_, d) in zip(FIG3_OMEGAS, geodesics):
            grid = _grid(su2_landing_time(omega))
            assert d == _formatted(su2_planar_geodesic(omega, s) for s in grid)
        boundaries = _svg_paths(svg, "s")
        assert [label for label, _ in boundaries] == [_fmt(s) for s in FIG3_TIMES]
        for s, (_, d) in zip(FIG3_TIMES, boundaries):
            assert d == _boundary_formatted(s)

    def test_figure3_boundary_past_every_landing(self, monkeypatch):
        # At s = 4 > pi every geodesic of the sweep has landed, and each
        # circle point comes from an earlier time's boundary.
        times = FIG3_TIMES + (4.0,)
        monkeypatch.setattr(figures, "FIG3_TIMES", times)
        boundaries = _svg_paths(figure_svg(3), "s")
        assert [label for label, _ in boundaries] == [_fmt(s) for s in times]
        assert boundaries[-1][1] == _boundary_formatted(4.0)

    def test_signed_zeros_print_unsigned(self):
        svg = _path([-0.0, -0.0, 1.0, 1e-15, -1e-15, -1e-15, -10.0, 0.0], "black")
        assert ('d="M 0.000000000000,0.000000000000 L 1.000000000000,0.000000000000'
                ' L 0.000000000000,0.000000000000 L -10.000000000000,0.000000000000"'
                in svg)

    @pytest.mark.parametrize("points", [
        # y rounds to +-0 at 12 decimals, on either side of the axis.
        [1.0, 1e-15, -1e-15, -4e-13, -0.0, -0.0, 0.0, 0.0],
        [-0.0, 5e-13, 2.5, -5e-13, -3.0, 4.9e-13, 1e-13, -1e-300],
        [0.5, 0.25, -1.5, -0.75, 10.0, -1e-12, -10.0, 1e-12],
    ])
    def test_pair_matches_path_of_each(self, points):
        reflected = [-v if i % 2 else v for i, v in enumerate(points)]
        assert _path_pair(points, "red", "c", 1.5, width=0.008) == (
            _path(points, "red", 'data-c="1.500000000000" ', width=0.008),
            _path(reflected, "red", 'data-c="-1.500000000000" ', width=0.008))


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the
    next one."""

    SEQUENCE = [
        ("dist", "--precision", "4", "2", "1", "1", "1"),
        ("dist", "2", "1", "1", "1"),
        ("solve", "--pretty", "0", "-1", "1", "0", "2", "1", "1", "1"),
        ("figure", "1", "--bogus"),
        ("solve", "0", "-1", "1", "0", "2", "1", "1", "1"),
        ("path", "1.2", "auto", "5"),
    ]

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sequence_matches_fresh_runs(self, capsys):
        in_sequence = [self._outcome(capsys, argv) for argv in self.SEQUENCE]
        assert _build_parser() is _build_parser()
        fresh = []
        for argv in self.SEQUENCE:
            _build_parser.cache_clear()
            fresh.append(self._outcome(capsys, argv))
        assert in_sequence == fresh
        assert [code for code, _, _ in in_sequence] == [0, 0, 0, 2, 0, 0]
        assert parse_kv(in_sequence[0][1])["s"] == "0.9624"
        assert parse_kv(in_sequence[1][1])["s"] == "0.962423650119"


def test_python_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "sl2geo", "project", "-1", "2", "-1", "1"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "x=0 y=1.5 stratum=regular\n", "")
