import argparse
import math
import re

import numpy as np
import pytest

import sl2geo.quotient
from sl2geo import selftest
from sl2geo.cli import _build_parser, main
from sl2geo.figures import figure_svg


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

    def test_su2_figure_points_inside_disc(self):
        svg = figure_svg(3)
        for match in re.finditer(r'd="M ([^"]+)"', svg):
            for pair in match.group(1).split(" L "):
                x, y = map(float, pair.split(","))
                assert x * x + y * y <= 1.0 + 1e-9


class TestSelftestCommand:
    def test_clean_build_exits_0(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_injected_christoffel_fault_detected(self, capsys, monkeypatch):
        original = sl2geo.quotient.christoffel

        def broken(p):
            gamma = original(p)
            gamma[1, 0, 0] = -gamma[1, 0, 0]
            return gamma

        monkeypatch.setattr(sl2geo.quotient, "christoffel", broken)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL quotient" in out

    def test_runtime_budget(self):
        import time
        start = time.perf_counter()
        assert selftest.run_selftests(out=lambda *_: None) == 0
        assert time.perf_counter() - start < 60.0
