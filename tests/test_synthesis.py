import math
import re
import statistics
from collections import Counter

import numpy as np
import pytest

from sl2geo import (C_LANDING, C_ORTHOGONAL, CutLocusClass, QuotientPoint,
                    SynthesisSolution, basis, check_fan_monotone,
                    classify_cut_locus, distance_to_class, exp2,
                    landing_point, lift, planar_geodesic, project, s_int, solve,
                    verify_solution)
from sl2geo import synthesis
from sl2geo.errors import (BadGridError, NonFiniteError, NotUnimodularError,
                           StartPointError, UnreachableError)
from sl2geo.synthesis import _FAR, _fan, _polar_angle
from sl2geo.tolerances import ROTATION_FLOOR, SERIES_CUTOFF, SINGULAR_BAND

from conftest import near_circle_targets, random_sl2, strata_targets

A0, A1, A2 = basis()

# Independently verified root of the reference endpoint problem (40-digit
# Newton on the closed-form system x(c,s) = 0, y(c,s) = 3/2).
REF_C = 1.2575651629220838
REF_S = 2.7811611345877465


class TestClassify:
    def test_circle_point(self):
        tag = classify_cut_locus(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert tag is CutLocusClass.SINGULAR_CIRCLE

    def test_negative_axis_point(self):
        tag = classify_cut_locus(np.array([[-2.0, 1.0], [1.0, -1.0]]))
        assert tag is CutLocusClass.NEGATIVE_AXIS_SEGMENT

    def test_regular_point_on_positive_axis(self):
        tag = classify_cut_locus(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert tag is CutLocusClass.REGULAR

    def test_identity_is_start_point(self):
        assert classify_cut_locus(np.eye(2)) is CutLocusClass.START_POINT

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            classify_cut_locus(np.array([[2.0, 0.0], [0.0, 2.0]]))


def _flag(call):
    """on_cut_locus of the call's answer, or None for StartPointError."""
    try:
        return call().on_cut_locus
    except StartPointError:
        return None


class TestOneCutLocusRule:
    """classify_cut_locus, distance_to_class and solve share one classifier."""

    # A rotation by 1e-9 rad: in the circle's band and the axis band, just
    # outside the start disc.
    ROTATION = np.array([[1.0000000000000002, 1e-9], [-1e-9, 1.0000000000000002]])

    def test_classify_dist_and_solve_agree(self, rng):
        cases = [(name, xm) for name, _, _, xm in strata_targets(rng, 2500)
                 if xm is not None]
        # Near (1, 0) the bands overlap outside the start disc only in a
        # sliver about 1e-10 wide, which few of the targets above reach.
        cases += [(name, xm) for name, _, _, xm in strata_targets(rng, 3000, ["overlap+1"])
                  if xm is not None]
        cases += [("random", random_sl2(rng)) for _ in range(500)]
        counts, sliver = Counter(name for name, _ in cases), 0
        assert min(counts["overlap+1"], counts["overlap-1"]) >= 200
        for name, xm in cases:
            tag = classify_cut_locus(xm)
            p = project(xm)
            want = None if tag is CutLocusClass.START_POINT else (
                tag is not CutLocusClass.REGULAR)
            sliver += tag is CutLocusClass.SINGULAR_CIRCLE and abs(p.y) <= 1e-9 and p.x > 0.0
            assert _flag(lambda: distance_to_class(p)) == want, (name, p)
            assert _flag(lambda: solve(np.eye(2), xm)) == want, (name, p)
        assert sliver > 0

    def test_rotation_lands(self):
        beta = math.atan2(1e-9, 1.0000000000000002)
        landing = 2.0 * math.sqrt(beta * (2.0 * math.pi + beta))  # 1.5853e-4
        for res in (distance_to_class(project(self.ROTATION)),
                    solve(np.eye(2), self.ROTATION)):
            assert res.on_cut_locus
            assert res.t_f == pytest.approx(landing, rel=1e-2)

    def test_band_target_inside_circle_lands_near_start(self):
        res = distance_to_class(QuotientPoint(0.9999999996, 9.5e-10))
        assert res.on_cut_locus
        assert res.t_f == pytest.approx(1.5452e-4, rel=1e-2)

    def test_band_residual_near_start(self):
        # r^2 - 1 = 8.9e-10 near (1, 0), where the minimizer stops well short
        # of the landing: the fan search reaches it to a rounding residual.
        x, y = 1.000000000444152, -3.1042849165784786e-09
        m = math.sqrt(x * x + y * y - 1.0)
        sol = solve(np.eye(2), np.array([[x + m, y], [-y, x - m]]))
        assert sol.on_cut_locus
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("beta", [1e-5, 0.05, 0.66, 1.27, 2.49, 3.1])
    def test_band_time_continuous_across_circle(self, beta):
        # The fan search just outside the circle and the landing just inside
        # it: the minimizer outside stops short of the landing by about
        # sqrt(r^2 - 1) in half-time.
        out, inside = (distance_to_class(QuotientPoint(r * math.cos(beta), r * math.sin(beta)))
                       for r in (math.sqrt(1.0 + 1e-12), math.sqrt(1.0 - 1e-12)))
        assert out.on_cut_locus and inside.on_cut_locus
        assert 0.0 < inside.t_f - out.t_f <= 3.0 * math.sqrt(1e-12)

    def test_one_fan_search_per_band_target(self, search_counts):
        # Band targets outside the circle take the one fan search; on or
        # inside it they take the closed-form landing and search nothing.
        outside = inside = 0
        for _, x, y, _ in strata_targets(np.random.default_rng(7), 600, ["circle"]):
            if synthesis._stratum(x, y) is not CutLocusClass.SINGULAR_CIRCLE:
                continue
            del search_counts[:]
            distance_to_class(QuotientPoint(x, y))
            finders = [finder for finder, _ in search_counts]
            if x * x + y * y > 1.0:
                outside += 1
                assert finders == ["fan"], (x, y, finders)
            else:
                inside += 1
                assert finders == [], (x, y, finders)
        assert min(outside, inside) >= 100

    @pytest.mark.parametrize("x, y", [
        (-1.5, 0.0), (-3.0, -0.0), (-1e3, 0.0),  # the cut: c > 0 at y = +-0
        (-3.0, 1e-12), (-3.0, -1e-12), (-1.5, 1e-9), (-1.5, -1e-9),  # its band
        (2.0, 1e-12), (2.0, -1e-12), (1.000000002, 1e-9), (1.000000002, -1e-9),
        # the circle's band near (-1, 0), on both sides of the circle
        (-1.0, 1e-10), (-1.0, -1e-10), (-1.0000000002, 5e-10),
        (-1.0000000002, -5e-10), (-0.9999999998, 1e-12), (-0.9999999998, -1e-12),
    ])
    def test_sign_of_c_in_the_axis_bands(self, x, y):
        # Every target off the exact axis is solved at its own angle, so c
        # has the sign of y; on the cut at y = +-0.0 the representative of
        # the +-c pair has c > 0.
        res = distance_to_class(QuotientPoint(x, y))
        assert res.c > 0.0 if y == 0.0 else res.c * y > 0.0
        assert res.on_cut_locus == (x < 0.0 or abs(x * x + y * y - 1.0) <= SINGULAR_BAND)


class TestDistance:
    @pytest.mark.parametrize("x, y, name", [
        (math.nan, 1.5, "x"), (0.0, math.nan, "y"),
        (math.inf, 0.0, "x"), (-2.0, -math.inf, "y"),
    ])
    def test_rejects_non_finite_target(self, x, y, name):
        with pytest.raises(NonFiniteError, match=f"coordinate {name} = "):
            distance_to_class(QuotientPoint(x, y))

    def test_rejects_overflowing_radius(self):
        with pytest.raises(NonFiniteError, match="target radius = inf"):
            distance_to_class(QuotientPoint(1.7e308, -1e308))

    @pytest.mark.parametrize("x, y, tol", [
        (1e200, 1e199, 1e-13), (-1e200, 0.0, 1e-13), (-1e160, 1e160, 1e-13),
        (5e159, 0.0, 1e-13), (-1e308, 1e-300, 1e-13), (1.5e308, 1.0, 1e-13),
        # The horizon test's x_int overflows: the horizon is beyond every r.
        (-1.7e308, 1e300, 1e-12), (-1.7e308, 1e305, 1e-12),
        # Bisection next to the horizon sentinel (ROADMAP item 2).
        (-1e200, 3.0, 1e-9)])
    def test_overflowing_radius_solved(self, x, y, tol):
        # x^2 + y^2 overflows, but r and every intermediate of the search
        # stay finite: the answer reaches the target to a relative residual.
        res = distance_to_class(QuotientPoint(x, y))
        p = planar_geodesic(res.c, res.s)
        assert math.hypot(p.x - x, p.y - y) <= tol * math.hypot(x, y)

    def test_positive_axis_closed_form(self):
        res = distance_to_class(QuotientPoint(math.cosh(0.5), 0.0))
        assert res.c == 0.0
        assert res.t_f == pytest.approx(1.0, abs=1e-12)
        assert not res.on_cut_locus

    def test_reference_target(self):
        res = distance_to_class(QuotientPoint(0.0, 1.5))
        assert res.c == pytest.approx(REF_C, abs=1e-9)
        assert res.s == pytest.approx(REF_S, abs=1e-9)
        assert res.t_f == pytest.approx(2.0 * REF_S, abs=1e-9)
        assert not res.on_cut_locus

    def test_far_corner_of_cut_locus(self):
        res = distance_to_class(QuotientPoint(-1.0, 0.0))
        assert res.c == pytest.approx(C_LANDING, abs=1e-9)
        assert res.s == pytest.approx(math.sqrt(3.0) * math.pi, abs=1e-9)
        assert res.on_cut_locus

    def test_axis_cut_target(self):
        res = distance_to_class(QuotientPoint(-2.5, 0.0))
        assert res.on_cut_locus
        assert res.c > 0.0
        import sl2geo
        assert sl2geo.x_int(res.c) == pytest.approx(-2.5, abs=1e-9)

    def test_circle_targets_match_landing_parameters(self):
        for theta in np.linspace(-3.0, 3.0, 25):
            if abs(theta) < 1e-3:
                continue
            target = QuotientPoint(math.cos(theta), math.sin(theta))
            res = distance_to_class(target)
            assert res.on_cut_locus
            land = landing_point(res.c)
            assert math.hypot(land.x - target.x, land.y - target.y) < 1e-8
            assert res.t_f == pytest.approx(
                2.0 * math.pi / math.sqrt(res.c ** 2 - 1.0), abs=1e-10)

    def test_sign_follows_target(self):
        up = distance_to_class(QuotientPoint(0.0, 1.5))
        down = distance_to_class(QuotientPoint(0.0, -1.5))
        assert down.c == pytest.approx(-up.c, abs=1e-12)
        assert down.t_f == pytest.approx(up.t_f, abs=1e-12)

    def test_extreme_targets_remain_solvable(self):
        # Far and shallow-angle targets drive the bisection through tiny
        # parameters whose raw crossing data overflows; the solver must not.
        for x, y in ((1.0e5, 1.0), (-4000.0, 1.0e-3), (1.0e80, 1.0e79),
                     (2.0, 1.0e-8), (1.0e3, -1.0e3)):
            res = distance_to_class(QuotientPoint(x, y))
            p = planar_geodesic(res.c, res.s)
            scale = max(1.0, math.hypot(x, y))
            assert math.hypot(p.x - x, p.y - y) <= 1e-8 * scale

    def test_interior_of_disc_unreachable(self):
        with pytest.raises(UnreachableError):
            distance_to_class(QuotientPoint(0.3, 0.4))

    def test_start_point_rejected(self):
        with pytest.raises(StartPointError):
            distance_to_class(QuotientPoint(1.0, 0.0))


# Targets just off the axis-cut segment: x = -3 (where the c = 3/(2 sqrt 2)
# geodesic crosses the axis orthogonally) and its neighbours, and x = -r at
# other radii down to the edge of the circle's singular band, each with |y|
# from 1e-9 to 5e-6 on both sides.
_BAND_YS = [sign * m * 10.0 ** e for sign in (1.0, -1.0)
            for m in (1.0, 2.0, 5.0) for e in range(-9, -5)]
_BAND_XS = ([-3.0 + d for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)]
            + [-3.0 + 0.025 * k for k in range(-12, 13)]
            + [-r for r in (1.0 + 1e-7, 1.0001, 1.05, 2.0, 2.9, 3.1, 10.0)])


class TestNearAxisBand:
    def test_band_targets_solved_to_residual(self):
        worst = 0.0
        for x in _BAND_XS:
            for y in _BAND_YS:
                res = distance_to_class(QuotientPoint(x, y))
                p = planar_geodesic(res.c, res.s)
                scale = max(1.0, math.hypot(x, y))
                worst = max(worst, math.hypot(p.x - x, p.y - y) / scale)
        assert worst <= 2e-9

    def test_pinned_crossing_times(self):
        # 40-digit reference values of the minimizing time.
        for x, y, t_f, tol in ((-3.0, 0.01, 8.8786948398332663, 1e-9),
                               (-3.0, 0.001, 8.8850587695668526, 1e-9),
                               (-1.001, 0.0, 10.793400644616989, 1e-9),
                               (-3.0, 0.0, 8.8857658763167325, 1e-9),
                               (-1.00001, 0.0, 10.873851960700912, 1e-8)):
            res = distance_to_class(QuotientPoint(x, y))
            assert res.t_f == pytest.approx(t_f, abs=tol), (x, y)


# Off-axis targets with 3 < r <= 60 whose fan search reaches the rising-branch
# horizon test, so that distance_to_class calls x_int at least once for each
# (checked with a counting wrapper when they were drawn: random.Random(20150),
# r log-uniform in [3, 60], polar angle uniform in (-pi, pi); every one of the
# first 40 draws qualified).  (x, y, t_f, c), recorded with that test in place
# (re-recorded when the fan coordinate was reversed, and when the fan was
# split into three parts, each searched in its own coordinate; each moved by
# at most 4.4e-16 and 5.2e-16 max(1, t_f)): removing the test must leave both
# answers bit-identical.  Sending x_int and the junction's constant
# _X_INT_1 to -inf removes it, as no rising crossing is then past the horizon.
_HORIZON_PINS = [
    (5.2610429606604505, -41.63819891318304, 9.446022743896284, -0.39100296230985976),
    (-10.548578901243847, 1.003852986720156, 9.442463423125854, 0.8651284862125431),
    (-4.016929354150478, 11.085086269850937, 7.800699316260637, 0.6841851820584479),
    (-13.474647665272258, -11.176480022731672, 9.110550478229205, -0.7108797158741813),
    (-19.706531011524774, 32.65200431543374, 9.904604067734684, 0.5425992052048171),
    (-4.3496729983217515, -2.5381390549509124, 8.001564238772024, -0.9580997931885679),
    (-10.288943191055647, 29.061203721588274, 9.32780970197894, 0.5292745935115802),
    (58.04145599431788, 0.9879908595939775, 9.508827866009065, 0.004533292752412108),
    (22.06935781688788, -5.3404081700965085, 7.650593341780105, -0.08403949017901996),
    (16.514289787261017, -18.939331983061685, 8.078697937995013, -0.28208039816239244),
    (1.2769772678296987, -5.30273317215524, 5.864370408392552, -0.7263089130993859),
    (17.866145458126695, 2.666684319375149, 7.181086330183104, 0.05717280681756673),
    (-4.575184363069441, -10.605611272997058, 7.8533572642830975, -0.7004407371106692),
    (-10.065990675888527, -7.109603631637539, 8.756138383340636, -0.7808320788768089),
    (2.030654458111557, 5.73764808181268, 5.883232122633912, 0.6588500683531807),
    (-28.533710307733667, 2.8766445880503975, 10.64902535644622, 0.7227403051288741),
    (4.44157087106237, 3.0445326643643877, 4.987770453414692, 0.4051167963787856),
    (-20.697196097416924, 5.820155315172206, 10.001298274709773, 0.7396779190275549),
    (33.04063001927018, 18.888155751091404, 8.74468853452184, 0.15416200403755323),
    (5.933850315916666, 12.712825852472395, 7.1912902648633095, 0.442559844262541),
    (-6.531166244717587, 2.8272031989870237, 8.503829551253657, 0.9029388587133744),
    (-31.98563405680688, 38.190839755112464, 10.520925514293339, 0.5394252140459673),
    (-15.93340210190161, -14.686478669018099, 9.347911354330046, -0.6695771707477424),
    (-2.677242025171417, 6.456048680198697, 7.161064558888891, 0.806760830092665),
    (-5.153028425762168, -12.71424343166238, 8.07626670917024, -0.6633850168536963),
    (3.6795254247777143, -2.2917896145645367, 4.546780501123596, -0.43931874977000906),
    (-7.4200019992216415, 17.454898073626854, 8.59870550678124, 0.6116890199327087),
    (-3.0367755628661737, 5.792273416677, 7.230656746588567, 0.8379059729187753),
    (0.795797808433616, -13.902587234323304, 7.558701620890002, -0.5560535694917359),
    (-1.3490743117732809, 8.693717814385503, 7.106118835969797, 0.7030769745242288),
    (1.3296374351980187, -56.58886670261772, 10.076880550869573, -0.38566939212552925),
    (-38.11658249495033, -42.695027591206674, 10.789401480809067, -0.5297421564323771),
    (-10.15519324997081, 37.507525967631786, 9.650050241168184, 0.48533953754457304),
    (-12.594459872144112, 3.2421156162475557, 9.401959677519462, 0.8173170396981358),
    (39.50296712748616, -21.369499232186023, 9.065461031688619, -0.14048816666881234),
    (-41.19867820462352, 19.549901685251672, 10.87643030454322, 0.6188929572635983),
    (9.048158728946058, -6.1990851975562355, 6.34180423398953, -0.2778433714292149),
    (-3.2612382527198274, 5.958857957303981, 7.303828743245227, 0.831855649268834),
    (-2.241772662749917, 3.873328709993247, 6.928413494234975, 0.9377822895879927),
    (18.17069845311513, 8.705499334562944, 7.464893197757632, 0.16370685538857052),
]


# The (t_f, c) each re-recorded pin held before the fan was split into its
# three parts.  A pin's test id is "x-y-t_f-c" with the values it was named
# by, so that re-recording a pin keeps its test's name.
_NAMED_AS = {
    (5.2610429606604505, -41.63819891318304): (9.446022743896284, -0.39100296230985987),
    (-10.548578901243847, 1.003852986720156): (9.442463423125854, 0.865128486212543),
    (-13.474647665272258, -11.176480022731672): (9.110550478229204, -0.7108797158741813),
    (-19.706531011524774, 32.65200431543374): (9.904604067734683, 0.542599205204817),
    (-4.3496729983217515, -2.5381390549509124): (8.001564238772028, -0.958099793188568),
    (-10.288943191055647, 29.061203721588274): (9.32780970197894, 0.5292745935115801),
    (58.04145599431788, 0.9879908595939775): (9.508827866009065, 0.00453329275241221),
    (22.06935781688788, -5.3404081700965085): (7.650593341780106, -0.08403949017902002),
    (16.514289787261017, -18.939331983061685): (8.078697937995015, -0.2820803981623925),
    (1.2769772678296987, -5.30273317215524): (5.864370408392552, -0.726308913099386),
    (17.866145458126695, 2.666684319375149): (7.181086330183103, 0.05717280681756676),
    (-4.575184363069441, -10.605611272997058): (7.853357264283098, -0.7004407371106693),
    (-10.065990675888527, -7.109603631637539): (8.756138383340637, -0.780832078876809),
    (2.030654458111557, 5.73764808181268): (5.883232122633912, 0.6588500683531808),
    (-28.533710307733667, 2.8766445880503975): (10.649025356446222, 0.7227403051288741),
    (4.44157087106237, 3.0445326643643877): (4.987770453414693, 0.4051167963787856),
    (33.04063001927018, 18.888155751091404): (8.744688534521838, 0.1541620040375533),
    (5.933850315916666, 12.712825852472395): (7.191290264863308, 0.4425598442625409),
    (-31.98563405680688, 38.190839755112464): (10.52092551429334, 0.5394252140459674),
    (-15.93340210190161, -14.686478669018099): (9.347911354330048, -0.6695771707477425),
    (-5.153028425762168, -12.71424343166238): (8.07626670917024, -0.6633850168536966),
    (-3.0367755628661737, 5.792273416677): (7.230656746588568, 0.8379059729187754),
    (-1.3490743117732809, 8.693717814385503): (7.106118835969797, 0.7030769745242289),
    (1.3296374351980187, -56.58886670261772): (10.076880550869573, -0.3856693921255292),
    (-38.11658249495033, -42.695027591206674): (10.789401480809067, -0.529742156432377),
    (-10.15519324997081, 37.507525967631786): (9.650050241168186, 0.48533953754457304),
    (-12.594459872144112, 3.2421156162475557): (9.40195967751946, 0.8173170396981357),
    (39.50296712748616, -21.369499232186023): (9.065461031688619, -0.14048816666881225),
    (-41.19867820462352, 19.549901685251672): (10.87643030454322, 0.6188929572635982),
    (9.048158728946058, -6.1990851975562355): (6.34180423398953, -0.277843371429215),
    (-3.2612382527198274, 5.958857957303981): (7.3038287432452265, 0.831855649268834),
    (-2.241772662749917, 3.873328709993247): (6.928413494234978, 0.9377822895879928),
    (18.17069845311513, 8.705499334562944): (7.464893197757632, 0.16370685538857055),
    (-3.0, 0.0): (8.88576587631673, 1.0606601717798212),
    (-1.001, 0.0): (10.793400644616998, 1.154698430006658),
    (-2.2, -0.0): (8.952963404464118, 1.0988300459021978),
    (-3.0, 0.05): (8.850414464868392, 1.0606392535529),
    (0.0, 3.0001): (5.603631666569612, 0.9963596055177262),
    (2.999, 0.2): (3.534883900404188, 0.08086304252564958),
    (-3.01, -0.3): (8.675307568972462, -1.0594083658733682),
    (1.5823662963727558, 0.711357365701801): (2.759587803217908, 0.9560824878754117),
    (7.550165226784762, -0.08906366878589296): (5.420825136757868, -0.006861105977489235),
    (5.161103638508357, 0.7507789810291041): (4.686273078378339, 0.10622472909057712),
    (0.8814687861558497, -1.7717330290689357): (4.376745636989354, -1.1381731677376634),
    (-4.003348197876582, -0.13281802291598294): (8.865955435807447, -1.0196542561371436),
    (1.249094666352005, -1.2911863704494084): (3.619114228439098, -1.1573588077109511),
    (0.18963232166392585, 1.1457767171325008): (5.564074706625001, 1.360326176686404),
    (-2.015424851557545, -0.031911733004411115): (8.965249037054017, -1.108814813084571),
    (0.7887549430872778, 1.098715993045512): (4.009304082036844, 1.4128752382983663),
    (0.07073720202138892, 0.9974949915915293): (6.8334748417742865, 1.3584470321053002),
    (-0.9899925015504079, -0.14112000876546724): (10.554335692591334, -1.1637826300405625),
    (0.296280872999389, 0.9551008558234675): (6.1943221841804785, 1.4243885520061468),
    (0.2962808729254669, 0.9551008555851699): (6.1943649052309455, 1.4243885520061486),
    (1.000000000444152, -3.1042849165784786e-09): (0.0002243566314695962, -21726.439670624768),
}


def _ids(pins):
    return ["-".join(map(str, (x, y, *_NAMED_AS.get((x, y), (t_f, c)))))
            for x, y, t_f, c in pins]


@pytest.mark.parametrize("x, y, t_f, c", _HORIZON_PINS, ids=_ids(_HORIZON_PINS))
def test_horizon_targets_bit_identical(x, y, t_f, c, monkeypatch):
    res = distance_to_class(QuotientPoint(x, y))
    assert (res.t_f, res.c) == (t_f, c)
    monkeypatch.setattr(synthesis, "x_int", lambda c: -math.inf)
    monkeypatch.setattr(synthesis, "_X_INT_1", -math.inf)
    res = distance_to_class(QuotientPoint(x, y))
    assert (res.t_f, res.c) == (t_f, c)


def test_horizon_solved_only_where_new(monkeypatch):
    # The pins' nested x_int calls: 445 when every junction gap solved
    # x_int(1) and crossing re-ran the test, whose answer it does not read.
    calls, in_crossing = [], [False]
    x_int, fan = synthesis.x_int, synthesis._fan

    def counted_x_int(c):
        calls.append((c, in_crossing[0]))
        return x_int(c)

    def counted_fan(*args):
        *parts, crossing = fan(*args)

        def counted_crossing(part, t):
            in_crossing[0] = True
            try:
                return crossing(part, t)
            finally:
                in_crossing[0] = False
        return (*parts, counted_crossing)

    monkeypatch.setattr(synthesis, "x_int", counted_x_int)
    monkeypatch.setattr(synthesis, "_fan", counted_fan)
    for x, y, _, _ in _HORIZON_PINS:
        distance_to_class(QuotientPoint(x, y))
    assert len(calls) == 395
    assert [call for call in calls if call[0] == 1.0 or call[1]] == []


# Targets with r > 3 just before the horizon, near the negative axis, whose
# answer the horizon test moves: its sentinel _FAR enters bisect's final
# secant step as the angle gap at one end.  The answer without the test is the
# closer one (relative planar residual 1.8e-16 to 6.3e-15 against 40-digit
# mpmath, 1.7e-12 to 3.8e-11 with it).
_SENTINEL_TARGETS = [
    (-204748.17664352557, 1.749707735143602e-06),
    (-9283967.409141999, -4.9408990889787674e-05),
    (-37341.65811944094, 2.0210609363857657e-07),
    (-421.47871702878064, 2.2868960058985977e-09),
    (-994.4843452872127, 4.632283889804967e-09),
    (-2929531458.839754, -0.020951032638549805),
    (-1.7228179115679332e+22, -138039656448.0),
]


def _with_and_without_horizon_test(x, y, monkeypatch):
    with_test = distance_to_class(QuotientPoint(x, y))
    monkeypatch.setattr(synthesis, "x_int", lambda c: -math.inf, raising=False)
    monkeypatch.setattr(synthesis, "_X_INT_1", -math.inf, raising=False)
    return with_test, distance_to_class(QuotientPoint(x, y))


@pytest.mark.parametrize("x, y", _SENTINEL_TARGETS)
def test_horizon_sentinel_moves_answers_by_rounding(x, y, monkeypatch):
    on, off = _with_and_without_horizon_test(x, y, monkeypatch)
    tol = 1e-12 * max(1.0, on.t_f)
    assert abs(on.t_f - off.t_f) <= tol and abs(on.c - off.c) <= tol


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the horizon "
                   "sentinel enters bisect's secant step (ROADMAP item 2)")
def test_horizon_sentinel_targets_bit_identical(monkeypatch):
    for x, y in _SENTINEL_TARGETS:
        on, off = _with_and_without_horizon_test(x, y, monkeypatch)
        monkeypatch.undo()
        assert (on.t_f, on.c) == (off.t_f, off.c), (x, y)


# Fan searches off the rising-branch horizon, (x, y, t_f, c), re-recorded when
# the fan coordinate was reversed (each moved by at most 4.0e-12 max(1, t_f)),
# when searches without the horizon test took zeroin and the junction took
# pi - delta exactly (14 moved, by at most 5.7e-16 max(1, t_f) but for
# 1.3e-11 at the target near (1, 0), where c is ill-conditioned), and when
# the fan was split into three parts, each searched in its own coordinate
# (21 moved, by at most 6.0e-16 max(1, t_f) but for 6.4e-12 at the target
# near (1, 0)): an inlined operation that is reordered moves some of these
# answers.  The targets near the circle and on the c = +-1 geodesics reach
# the series branch of the hyperbolic crossing; the r > 3 hyperbolic ones
# also evaluate the horizon test.
_FAN_PINS = [
    # axis cut
    (-1.5, 0.0, 9.291798312170217, 1.135279796064387),
    (-3.0, 0.0, 8.885765876316732, 1.0606601717798212),
    (-10.0, 0.0, 9.550812201465083, 0.8821753010498774),
    (-1.001, 0.0, 10.793400644616996, 1.154698430006658),
    (-2.2, -0.0, 8.952963404464123, 1.0988300459021978),
    # near r = 3
    (-2.999, 0.01, 8.878692254145703, 1.0607036265762735),
    (-3.0, 0.05, 8.85041446486839, 1.0606392535529),
    (0.0, 3.0001, 5.603631666569611, 0.9963596055177262),
    (2.999, 0.2, 3.534883900404188, 0.08086304252564967),
    (-3.01, -0.3, 8.675307568972459, -1.0594083658733682),
    # regular hyperbolic
    (1.5823662963727558, 0.711357365701801, 2.7595878032179084, 0.956082487875412),
    (-5.926705947122258, -4.841774031039918, 8.087086905506075, -0.8600701753994819),
    (7.550165226784762, -0.08906366878589296, 5.420825136757868, -0.006861105977489236),
    (5.161103638508357, 0.7507789810291041, 4.686273078378339, 0.10622472909057705),
    # trigonometric rising
    (0.8814687861558497, -1.7717330290689357, 4.376745636989353, -1.1381731677376632),
    (-4.003348197876582, -0.13281802291598294, 8.865955435807448, -1.0196542561371436),
    (1.249094666352005, -1.2911863704494084, 3.619114228439097, -1.1573588077109511),
    (1.1036677113362978, 1.0449600497420992, 3.440339384284359, 1.3264316383996568),
    # trigonometric falling
    (0.18963232166392585, 1.1457767171325008, 5.564074706624999, 1.3603261766864043),
    (-2.015424851557545, -0.031911733004411115, 8.965249037054013, -1.108814813084571),
    (0.7887549430872778, 1.098715993045512, 4.009304082036843, 1.4128752382983665),
    (-1.5760189607778492, 0.9554202484053788, 7.835641548990348, 1.139024685591158),
    # r^2 - 1 = 1e-8, and on the c = +-1 geodesics
    (0.07073720202138892, 0.9974949915915293, 6.833474841774284, 1.3584470321053004),
    (-0.9899925015504079, -0.14112000876546724, 10.554335692591332, -1.1637826300405625),
    (0.6950367447129576, 2.6013311829712906, 5.0, 1.0),
    (1.402448017104221, -1.7415910999199666, 4.0, -1.0),
    # the circle's band outside the circle: r^2 - 1 = 5e-10 and 1e-12 at
    # beta = 1.27, and r^2 - 1 = 8.9e-10 near (1, 0)
    (0.296280872999389, 0.9551008558234675, 6.194322184180476, 1.424388552006147),
    (0.2962808729254669, 0.9551008555851699, 6.194364905230943, 1.424388552006149),
    (1.000000000444152, -3.1042849165784786e-09, 0.00022435662510147256, -21726.440127880287),
]


@pytest.mark.parametrize("x, y, t_f, c", _FAN_PINS, ids=_ids(_FAN_PINS))
def test_fan_targets_bit_identical(x, y, t_f, c):
    res = distance_to_class(QuotientPoint(x, y))
    assert (res.t_f, res.c) == (t_f, c)


_PARTS = ("falling", "rising", "hyperbolic")


def test_fan_objective_is_the_fan_point_angle(monkeypatch):
    # Every value the fan search sees, other than the horizon sentinel, is
    # the angle gap of the crossing that _fan returns: bit for bit its part's
    # closed form, and within rounding c s - atan2(c radial, k1) - beta.
    calls, parts = [], Counter()
    fan = synthesis._fan

    def capture(name, part):
        def objective(t):
            value = part(t)
            calls.append((name, t, value))
            return value
        return objective

    def capturing(*args):
        *found, crossing = fan(*args)
        return (*map(capture, _PARTS, found), crossing)

    monkeypatch.setattr(synthesis, "_fan", capturing)
    for x, y, _, _ in _FAN_PINS:
        del calls[:]
        distance_to_class(QuotientPoint(x, y))
        radial, beta = math.sqrt(x * x + y * y - 1.0), math.atan2(abs(y), x)
        *found, crossing = fan(radial)
        for name, t, value in calls:
            if value == _FAR:
                parts["far"] += 1
                continue
            c, s, k1 = crossing(dict(zip(_PARTS, found))[name], t)
            naive = c * s - math.atan2(c * radial, k1) - beta
            if name == "hyperbolic":
                assert value == naive, (x, y, t)
                w = (1.0 - c * c) * radial * radial
                parts["series" if w < SERIES_CUTOFF else "hyp"] += 1
            else:
                sin_t = math.sin(t)
                v = sin_t / radial
                g = 1.0 / (v * (c + v))
                atan = math.atan(g * sin_t * abs(k1) / (1.0 + g * sin_t * sin_t))
                want = g * (math.pi - t) + atan if name == "falling" else g * t - atan
                assert value == want - beta, (x, y, name, t)
                assert abs(value - naive) <= 1e-14 * max(1.0, c * s), (x, y, name, t)
                parts[name] += 1
            parts["band"] += radial < 1e-4
    keys = ("far", "falling", "rising", "series", "hyp", "band")
    assert min(parts[k] for k in keys) > 0, parts


def test_zeroin_agrees_with_bisect(monkeypatch):
    # The fan searches that take zeroin, against bisect on the same
    # objective, away from (1, 0), where c is ill-conditioned: t_f and c
    # agree to 1e-9 max(1, t_f) and 1e-9 max(1, |c|).
    targets = [(x, y) for _, x, y, xm in strata_targets(
        np.random.default_rng(11), 800, ["overlap-1", "circle", "axis", "r3"])
        if xm is not None and math.hypot(x - 1.0, y) > 1.7e-3]
    brent = [distance_to_class(QuotientPoint(x, y)) for x, y in targets]
    monkeypatch.setattr(synthesis, "zeroin", synthesis.bisect)
    moved = 0
    for (x, y), got in zip(targets, brent):
        want = distance_to_class(QuotientPoint(x, y))
        moved += got != want
        assert abs(got.t_f - want.t_f) <= 1e-9 * max(1.0, want.t_f), (x, y)
        assert abs(got.c - want.c) <= 1e-9 * max(1.0, abs(want.c)), (x, y)
    assert len(targets) > 500 and moved > 100


def test_fan_angle_closed_form_matches_polar_angle():
    # The fan objective's angle, each part's closed form, against
    # _polar_angle's k1k2 at the crossing's (c, s): all three parts, r - 1
    # from 1e-14 to 1e6, angles up to 2 pi.
    worst, parts = 0.0, Counter()
    for e in range(-28, 13):
        radial = math.sqrt((1.0 + 10.0 ** (e / 2.0)) ** 2 - 1.0)
        *found, crossing = _fan(radial)
        for name, part in zip(_PARTS, found):
            for i in range(1, 65):
                t = (1.0 if name == "hyperbolic" else 0.5 * math.pi) * i / 64.0
                angle = part(t)
                c, s, _ = crossing(part, t)
                if angle <= 2.0 * math.pi:
                    parts[name] += 1
                    worst = max(worst, abs(angle - _polar_angle(c, s)))
    assert min(parts[name] for name in _PARTS) > 500, parts
    assert worst <= 1e-13


# Objective evaluations per root search on a fixed seeded set: (median, max)
# over each stratum's fan searches (every evaluation of the fan's parts: the
# two junction signs, the falling part's cut and the search itself), over
# the s_int searches nested in them (the horizon test of r > 3 targets, but
# for the c = 1 junction, which reads a constant: the axis+ stratum nests
# none) and over s_int at _COUNT_CS.  Fan searches with that test keep
# bisect on the rising parts (the maxima of 42 and 43); the others, the axis
# cut included, take zeroin.  Counts do not depend on the machine; a change
# that moves them sets new budgets here.
_COUNT_CS = (1e-6, 0.01, 0.3, 0.9, 1.0, 1.05, C_ORTHOGONAL, 1.1, C_LANDING)
_COUNT_BUDGETS = {
    "fan axis": (10, 42), "fan axis+": (42, 42), "fan circle": (6, 7),
    "fan overlap+1": (9.0, 13), "fan overlap-1": (6, 7), "fan r3": (5, 43),
    "s_int axis": (38, 38), "s_int r3": (44.0, 44),
    "s_int": (37, 44),
}


def test_search_count_budgets(search_counts):
    counts = {}
    for name, x, y, _ in strata_targets(np.random.default_rng(2016), 500):
        del search_counts[:]
        try:
            distance_to_class(QuotientPoint(x, y))
        except (StartPointError, UnreachableError):
            pass
        for finder, n in search_counts:
            counts.setdefault(f"{finder} {name}", []).append(n)
    del search_counts[:]
    for c in _COUNT_CS:
        s_int(c)
    counts["s_int"] = [n for _, n in search_counts]
    got = {key: (statistics.median(n), max(n)) for key, n in counts.items()}
    assert got == _COUNT_BUDGETS


def test_near_circle_count_budget(search_counts):
    # The seeded near-circle family: the falling part's cut at the landing
    # asymptote and the gaps free of cancellation keep every search short
    # (a median of 26 and a maximum of 61 when one coordinate ran over the
    # whole fan).
    counts = []
    for x, y in near_circle_targets():
        del search_counts[:]
        distance_to_class(QuotientPoint(x, y))
        counts += [n for _, n in search_counts]
    assert len(counts) == 1000
    assert (statistics.median(counts), max(counts)) == (7, 10)


class TestSolve:
    def test_reference_endpoint_problem(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert sol.c == pytest.approx(REF_C, abs=1e-9)
        assert sol.t_f == pytest.approx(2.0 * REF_S, abs=1e-9)
        assert sol.residual <= 1e-9
        assert not sol.on_cut_locus
        # Printed reference values: consistent with the exact solution to
        # ~1e-5 (c) and ~5e-4 (K, P); asserted at that supported precision.
        assert sol.c == pytest.approx(1.257558, abs=1e-5)
        assert 0.5 * sol.t_f == pytest.approx(2.78115, abs=2e-5)
        k_ref = np.array([[0.9170700563, 0.39872611144],
                          [-0.39872611144, 0.9170700563]])
        assert np.max(np.abs(sol.K - k_ref)) < 5e-4
        p_ref = 0.5 * np.array([[0.682034976, -0.73131955488],
                                [-0.73131955488, -0.682034976]])
        assert np.max(np.abs(sol.P - p_ref)) < 5e-4

    def test_direction_is_unit_norm(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert 2.0 * float(np.sum(sol.P * sol.P)) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(sol.P) == pytest.approx(0.0, abs=1e-12)

    def test_axis_target_gives_horizontal_direction(self):
        sol = solve(np.eye(2), exp2(A1))
        assert sol.c == 0.0
        assert sol.t_f == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.P, A1, atol=1e-9)

    def test_infinite_family_cut_target(self):
        c = 1.5
        t_cut = 2.0 * math.pi / math.sqrt(c * c - 1.0)
        xf = -exp2(-c * t_cut * A0)
        sol = solve(np.eye(2), xf)
        assert sol.on_cut_locus
        assert sol.c == pytest.approx(c, abs=1e-9)
        assert verify_solution(sol, np.eye(2), xf) <= 1e-9

    def test_right_invariance(self, rng):
        for _ in range(20):
            xi = random_sl2(rng)
            xf = random_sl2(rng)
            x_hat = xf @ np.array([[xi[1, 1], -xi[0, 1]], [-xi[1, 0], xi[0, 0]]])
            if math.hypot(*(project(x_hat) - np.array([1.0, 0.0]))) < 1e-6:
                continue
            a = solve(xi, xf)
            b = solve(np.eye(2), x_hat)
            assert a.c == pytest.approx(b.c, abs=1e-12)
            assert a.t_f == pytest.approx(b.t_f, abs=1e-12)

    def test_positive_axis_distance_closed_form(self, rng):
        for _ in range(20):
            x = rng.uniform(1.05, 20.0)
            rep = np.array([[x, math.sqrt(x * x - 1.0)],
                            [math.sqrt(x * x - 1.0), x]])
            sol = solve(np.eye(2), rep)
            assert sol.t_f == pytest.approx(2.0 * math.acosh(x), rel=1e-12)

    def test_cut_time_bound(self, rng):
        for _ in range(30):
            target = random_sl2(rng)
            p = project(target)
            if math.hypot(p.x - 1.0, p.y) < 1e-6:
                continue
            sol = solve(np.eye(2), target)
            if sol.c == 0.0:
                continue
            assert sol.t_f <= 2.0 * s_int(abs(sol.c)) + 1e-6

    def test_singular_band_targets_solved(self, rng):
        # X_hat = [[x + m, y + k], [k - y, x - m]] has det 1 when its
        # symmetric part (m, k) has m^2 + k^2 = r^2 - 1: targets in and just
        # outside the singular band, whose lift still has to be rotated.
        for _ in range(500):
            band = 10.0 ** rng.uniform(-16.0, -8.0)  # r^2 - 1
            beta, psi = rng.uniform(-math.pi, math.pi, 2)
            x, y = math.sqrt(1.0 + band) * np.array([math.cos(beta), math.sin(beta)])
            m, k = math.sqrt(band) * np.array([math.cos(psi), math.sin(psi)])
            x_hat = np.array([[x + m, y + k], [k - y, x - m]])
            xi = random_sl2(rng)
            xf = x_hat @ xi
            sol = solve(xi, xf)
            # The endpoint error against X_hat, times at most |Xi| for Xf.
            scale = max(1.0, float(np.linalg.norm(x_hat)))
            assert sol.residual <= 1e-6 * scale
            assert verify_solution(sol, xi, xf) <= 1e-6 * scale * np.linalg.norm(xi)

    def test_rotation_recovered_to_rounding_near_the_circle(self):
        # r^2 - 1 from 1e-24 to 1e-18: the symmetric part, 1e-12 to 1e-9 in
        # size, is still aligned (the identity left residuals up to 2.6e-9).
        rng = np.random.default_rng(3)
        for _ in range(400):
            band = 10.0 ** rng.uniform(-24.0, -18.0)
            beta, psi = rng.uniform(-math.pi, math.pi, 2)
            x, y = math.sqrt(1.0 + band) * np.array([math.cos(beta), math.sin(beta)])
            m, k = math.sqrt(band) * np.array([math.cos(psi), math.sin(psi)])
            sol = solve(np.eye(2), np.array([[x + m, y + k], [k - y, x - m]]))
            assert sol.residual <= 1e-12, band

    def test_rotation_angle_to_rounding(self):
        # K turns the A2 lift's symmetric part sqrt(r^2 - 1) (cos cs, sin cs)
        # into X_hat's (m, k): its angle is (cs - atan2(k, m))/2 mod pi, here
        # in 50 digits at the returned (c, t_f = 2s).  Near the circle, where
        # sqrt(r^2 - 1) is 1e-6 to 1e-3, reading cs back from a computed lift
        # lost it to ~eps/sqrt(r^2 - 1) (1.3e-11 rad on these targets).
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        targets = []
        for _ in range(300):
            size = 10.0 ** rng.uniform(-6.0, -3.0)
            beta, psi = rng.uniform(-math.pi, math.pi, 2)
            x, y = math.sqrt(1.0 + size * size) * np.array([math.cos(beta), math.sin(beta)])
            m, k = size * np.array([math.cos(psi), math.sin(psi)])
            targets.append(np.array([[x + m, y + k], [k - y, x - m]]))
        for _ in range(200):
            c = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.5)
            s = min(rng.uniform(0.05, 0.95) * s_int(c), 12.0)
            targets.append(lift(c, rng.uniform(-math.pi, math.pi), 2.0 * s))
        worst = 0.0
        with mpmath.workdps(50):
            for x_hat in targets:
                sol = solve(np.eye(2), x_hat)
                (a, b), (g, d) = (map(mpmath.mpf, row) for row in x_hat)
                ref = (mpmath.mpf(sol.c) * mpmath.mpf(sol.t_f) / 2
                       - mpmath.atan2(b + g, a - d)) / 2
                err = mpmath.atan2(sol.K[0, 1], sol.K[0, 0]) - ref
                worst = max(worst, float(abs(err - mpmath.pi * mpmath.nint(err / mpmath.pi))))
        assert worst <= 1e-15, worst

    def test_exact_rotations_land_to_rounding(self):
        # A rotation's symmetric part is exactly 0, so solve takes the closed-
        # form landing even where x^2 + y^2 - 1 rounds to one ulp above 0 (73
        # of these 2,000 did, and stopped 1.5e-8 short of the landing).
        above = 0
        for theta in np.random.default_rng(3).uniform(-math.pi, math.pi, 2000):
            c, s = math.cos(theta), math.sin(theta)
            above += c * c + s * s > 1.0
            sol = solve(np.eye(2), np.array([[c, s], [-s, c]]))
            assert sol.on_cut_locus and sol.residual <= 1e-12, theta
        assert above >= 50

    @pytest.mark.parametrize("family", [
        lambda m: [[m, -1.0], [1.0, -m]],
        lambda m: [[m, 1.0], [-1.0, -m]],
        lambda m: [[-1.0, m], [m, -1.0]],
    ], ids=["y=-1", "y=1", "x=-1"])
    def test_near_rotations_solved(self, family):
        # Exact near-rotations with symmetric part of size |m|, down to
        # subnormal.  Up to ROTATION_FLOOR they are rotations to rounding and
        # land as m = 0 does; the fan search, whose span grows like 1/|m|,
        # takes only the larger ones.
        rotation = solve(np.eye(2), np.array(family(0.0)))
        rng = np.random.default_rng(5)
        for m in rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-320.0, -8.0, 1000):
            sol = solve(np.eye(2), np.array(family(float(m))))
            assert sol.on_cut_locus and sol.residual <= 1e-13, m
            if abs(m) <= ROTATION_FLOOR:
                assert (sol.c, sol.t_f) == (rotation.c, rotation.t_f), m

    def test_start_point_target_rejected(self):
        with pytest.raises(StartPointError, match="^target coincides with the start point"):
            solve(np.eye(2), np.eye(2))

    def test_non_finite_endpoint_rejected(self):
        xf = np.array([[2.0, 1.0], [1.0, math.nan]])
        with pytest.raises(NotUnimodularError, match="not all finite"):
            solve(np.eye(2), xf)

    def test_endpoints_outside_sl2_rejected(self):
        # det(Xi) = 2 and det(Xf) = 1/2 give det(Xf adj(Xi)) = 1, so only a
        # check on Xi itself catches them.
        xi = np.diag([2.0, 1.0])
        xf = np.diag([0.5, 1.0])
        with pytest.raises(NotUnimodularError):
            solve(xi, xf)

    def test_endpoint_outside_sl2_rejected_with_det(self):
        # The tolerance scales with the squared entries: 1e-12 * (4 + 1).
        with pytest.raises(NotUnimodularError) as err:
            solve(np.eye(2), np.diag([2.0, 1.0]))
        assert str(err.value) == "det = 2.0 is not 1 within 5e-12"

    def test_huge_singular_endpoint_rejected(self):
        # det 0 with entries whose products overflow: the parent check passed
        # the NaN determinant, and solve answered with residual 1.6e146.
        with pytest.raises(NotUnimodularError, match="det = nan"):
            solve(np.eye(2), np.full((2, 2), 1e160))

    def test_huge_diagonal_endpoint_solved(self):
        # Its size overflows, but its determinant is 1: the c = 0 geodesic
        # of length 2 ln(1e160).
        sol = solve(np.eye(2), np.diag([1e160, 1e-160]))
        assert sol.c == 0.0
        assert sol.t_f == pytest.approx(2.0 * math.log(1e160), rel=1e-15)

    def test_non_finite_start_rejected(self):
        xi = np.array([[math.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NotUnimodularError) as err:
            solve(xi, np.eye(2))
        assert str(err.value) == "entries [[nan, 0.0], [0.0, 1.0]] are not all finite"

    def test_coinciding_endpoints_rejected(self, rng):
        xi = random_sl2(rng)
        with pytest.raises(StartPointError):
            solve(xi, xi)

    def test_matrices_are_float_arrays(self):
        sol = solve(np.eye(2), np.array([[2, 1], [1, 1]]))
        for m in (sol.P, sol.K):
            assert isinstance(m, np.ndarray)
            assert m.dtype == np.float64
            assert m.shape == (2, 2)


class TestVerify:
    def test_reference_solution_residual(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        assert verify_solution(sol, xi, xf) <= 1e-6

    def test_trivial_solution_residual(self):
        sol = solve(np.eye(2), exp2(A1))
        assert verify_solution(sol, np.eye(2), exp2(A1)) <= 1e-10

    def test_sensitive_to_parameter_error(self):
        xi = np.array([[0.0, -1.0], [1.0, 0.0]])
        xf = np.array([[2.0, 1.0], [1.0, 1.0]])
        sol = solve(xi, xf)
        wrong = SynthesisSolution(c=sol.c + 1e-3, t_f=sol.t_f, P=sol.P,
                                  K=sol.K, residual=sol.residual)
        assert verify_solution(wrong, xi, xf) > 1e-4


class TestFanOrdering:
    @pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 2.9, 3.0, 3.1, 5.0, 10.0])
    def test_monotone_fan(self, r):
        assert check_fan_monotone(r, 96) == 0.0

    def test_needs_exterior_radius(self):
        with pytest.raises(UnreachableError):
            check_fan_monotone(0.9)

    @pytest.mark.parametrize("n", [-5, 0, 1])
    def test_needs_two_samples(self, n):
        # With fewer than two samples there is no pair of angles to compare.
        with pytest.raises(BadGridError, match=f"need at least 2 samples, got {n}"):
            check_fan_monotone(2.0, n)

    @pytest.mark.parametrize("r, message", [
        (math.nan, "r = nan is not finite"), (math.inf, "r = inf is not finite"),
        (-math.inf, "r = -inf is not finite"), (1e200, "r = 1e+200 overflows")])
    def test_rejects_non_finite_radius(self, r, message):
        with pytest.raises(NonFiniteError, match=re.escape(message)):
            check_fan_monotone(r)
