"""Deterministic SVG renderings of the synthesis pictures.

No plotting dependency: paths are emitted as text with fixed 12-decimal
coordinates, so regenerating a figure is byte-for-byte reproducible and the
geometry can be checked by parsing the file.  Every geodesic path carries
its parameter in a ``data-c`` (or ``data-omega``/``data-s``) attribute.

Figure 1: the optimal fan in the SL(2) quotient (green |c| < 1, black
|c| = 1, blue 1 < |c| <= 2/sqrt(3), red |c| = 3/(2 sqrt(2)), purple
landing geodesics), each drawn up to its optimality horizon.
Figure 2: the worked endpoint example, with two fixed illustrative curves.
Figure 3: SU(2) geodesics and reachable-set boundaries in the unit disc.
"""

from __future__ import annotations

import math

from .geodesics import (C_LANDING, C_ORTHOGONAL, landing_time, planar_curve,
                        s_int)
from .su2 import _reachable_boundaries, su2_curve, su2_landing_time
from .synthesis import distance_to_class
from .types import QuotientPoint

_FAN: tuple[tuple[float, str], ...] = (
    (0.9, "green"),
    (0.95, "green"),
    (1.0, "black"),
    (1.03, "blue"),
    (1.12, "blue"),
    (C_LANDING, "blue"),
    (C_ORTHOGONAL, "red"),
    (1.2, "purple"),
    (1.5, "purple"),
)

FAN_C_VALUES: tuple[tuple[float, str], ...] = tuple(
    (sign * c, color) for c, color in _FAN for sign in (1.0, -1.0))

_SAMPLES = 400


def _fmt(v: float) -> str:
    out = f"{v:.12f}"
    return "0.000000000000" if out == "-0.000000000000" else out


def _coords(xy: list[float]) -> str:
    # xy is a flat list in SVG coordinates, whose y grows downward: the
    # figures sample each curve at its mirrored parameter (-c or -omega),
    # which gives (x, -y) of the curve, bit for bit.  One % formats the
    # whole list.  Every number has 12 decimals, so "-0.000000000000" only
    # ever matches a whole coordinate and one replace normalizes them all,
    # as _fmt does.
    coords = " L ".join(["%.12f,%.12f"] * (len(xy) // 2)) % tuple(xy)
    return coords.replace("-0.000000000000", "0.000000000000")


def _mirrored(coords: str) -> str:
    # The coordinates of the reflection y -> -y: every y string follows a
    # comma, so one replace flips its sign, the next cancels a double minus,
    # and the last keeps a zero unsigned.
    return (coords.replace(",", ",-").replace(",--", ",")
            .replace(",-0.000000000000", ",0.000000000000"))


def _element(coords: str, stroke: str, attrs: str, width: float) -> str:
    return (f'<path {attrs}fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" d="M {coords}"/>')


def _path(xy: list[float], stroke: str, attrs: str = "",
          width: float = 0.025) -> str:
    """The path through the flat SVG coordinates xy."""
    return _element(_coords(xy), stroke, attrs, width)


def _path_pair(xy: list[float], stroke: str, name: str, value: float,
               width: float = 0.025) -> tuple[str, str]:
    """The paths of the curve with data-name = value, whose flat SVG
    coordinates are xy, and of its reflection y -> -y with data-name =
    -value, from one formatting of xy: the same bytes as _path of each."""
    coords = _coords(xy)
    return (_element(coords, stroke, f'data-{name}="{_fmt(value)}" ', width),
            _element(_mirrored(coords), stroke, f'data-{name}="{_fmt(-value)}" ',
                     width))


def _header(view: str, width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="{width}" height="{height}">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
        'stroke-width="0.015"/>',
    ]


def _axes(x0: float, x1: float, y0: float, y1: float) -> list[str]:
    return [
        f'<line x1="{_fmt(x0)}" y1="0" x2="{_fmt(x1)}" y2="0" '
        'stroke="#cccccc" stroke-width="0.01"/>',
        f'<line x1="0" y1="{_fmt(-y1)}" x2="0" y2="{_fmt(-y0)}" '
        'stroke="#cccccc" stroke-width="0.01"/>',
    ]


def figure_fan() -> str:
    """The fan of optimal geodesics, each truncated at its horizon."""
    lines = _header("-6 -5 12 10", 960, 800)
    lines += _axes(-6.0, 6.0, -5.0, 5.0)
    # The -c geodesic is the reflection of the c one, bit for bit, with
    # the same horizon: one curve is sampled and formatted per pair.
    for c, color in _FAN:
        lines += _path_pair(planar_curve(-c, s_int(c), _SAMPLES), color, "c", c)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def figure_worked_example() -> str:
    """Endpoint example with target (0, 3/2), and two fixed illustrative c."""
    target = QuotientPoint(0.0, 1.5)
    converged = distance_to_class(target).c
    curves = (
        (C_LANDING, "black"),
        (3.0 / math.sqrt(5.0), "black"),
        (1.248171, "red"),  # two fixed illustrative c inside the black bracket
        (1.294906, "green"),
        (converged, "blue"),
    )
    lines = _header("-2 -0.6 4 2.4", 960, 576)
    lines += _axes(-2.0, 2.0, -0.6, 1.8)
    for c, color in curves:
        lines.append(_path(planar_curve(-c, landing_time(c), _SAMPLES), color,
                           attrs=f'data-c="{_fmt(c)}" '))
    lines.append(f'<circle cx="{_fmt(target.x)}" cy="{_fmt(-target.y)}" '
                 'r="0.035" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_FIG3_MIRRORED = (0.5, 1.0, 2.0, 4.0)
FIG3_OMEGAS = (0.0,) + tuple(sign * w for w in _FIG3_MIRRORED for sign in (1.0, -1.0))
FIG3_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def figure_su2() -> str:
    """SU(2) geodesics (blue) and reachable-set boundaries (red)."""
    lines = _header("-1.3 -1.3 2.6 2.6", 800, 800)
    lines += _axes(-1.3, 1.3, -1.3, 1.3)
    lines.append(_path(su2_curve(-0.0, su2_landing_time(0.0), _SAMPLES), "blue",
                       attrs=f'data-omega="{_fmt(0.0)}" ', width=0.008))
    # As in figure 1, the -omega geodesic is the reflection of the omega one.
    for omega in _FIG3_MIRRORED:
        xy = su2_curve(-omega, su2_landing_time(omega), _SAMPLES)
        lines += _path_pair(xy, "blue", "omega", omega, width=0.008)
    boundaries = _reachable_boundaries(FIG3_TIMES, 256, -1.0)
    for s, xy in zip(FIG3_TIMES, boundaries):
        lines.append(_path(xy, "red", attrs=f'data-s="{_fmt(s)}" ', width=0.008))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def figure_svg(which: int) -> str:
    """Figure source by number (1: fan, 2: worked example, 3: SU(2))."""
    if which == 1:
        return figure_fan()
    if which == 2:
        return figure_worked_example()
    if which == 3:
        return figure_su2()
    raise ValueError(f"unknown figure {which}; expected 1, 2 or 3")
