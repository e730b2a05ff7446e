"""Deterministic SVG renderings of the synthesis pictures.

No plotting dependency: paths are emitted as text with fixed 12-decimal
coordinates, so regenerating a figure is byte-for-byte reproducible and the
geometry can be checked by parsing the file.  Every geodesic path carries
its parameter in a ``data-c`` (or ``data-omega``/``data-s``) attribute.

Figure 1: the optimal fan in the SL(2) quotient (green |c| < 1, black
|c| = 1, blue 1 < |c| <= 2/sqrt(3), red |c| = 3/(2 sqrt(2)), purple
landing geodesics), each drawn up to its optimality horizon.
Figure 2: the worked endpoint example with the bisection iterates.
Figure 3: SU(2) geodesics and reachable-set boundaries in the unit disc.
"""

from __future__ import annotations

import math

from .geodesics import (C_LANDING, C_ORTHOGONAL, landing_time, s_int,
                        sample_path)
from .su2 import reachable_boundary, su2_landing_time, su2_planar_geodesic
from .synthesis import distance_to_class
from .types import QuotientPoint

FAN_C_VALUES: tuple[tuple[float, str], ...] = tuple(
    (sign * c, color)
    for c, color in (
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
    for sign in (1.0, -1.0)
)

_SAMPLES = 400


def _fmt(v: float) -> str:
    out = f"{v:.12f}"
    return "0.000000000000" if out == "-0.000000000000" else out


def _path(points, stroke: str, attrs: str = "", width: float = 0.025) -> str:
    # SVG y grows downward; flip to keep the upper half-plane on top.
    coords = " L ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    return (f'<path {attrs}fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" d="M {coords}"/>')


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


def _geodesic_points(c: float, s_max: float) -> list[tuple[float, float]]:
    return [(p.x, p.y) for p in sample_path(c, s_max, _SAMPLES)]


def figure_fan() -> str:
    """The fan of optimal geodesics, each truncated at its horizon."""
    lines = _header("-6 -5 12 10", 960, 800)
    lines += _axes(-6.0, 6.0, -5.0, 5.0)
    for c, color in FAN_C_VALUES:
        horizon = s_int(c)
        lines.append(_path(_geodesic_points(c, horizon), color,
                           attrs=f'data-c="{_fmt(c)}" '))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def figure_worked_example() -> str:
    """Bisection iterates of the endpoint example with target (0, 3/2)."""
    target = QuotientPoint(0.0, 1.5)
    converged = distance_to_class(target).c
    curves = (
        (C_LANDING, "black"),
        (3.0 / math.sqrt(5.0), "black"),
        (1.248171, "red"),
        (1.294906, "green"),
        (converged, "blue"),
    )
    lines = _header("-2 -0.6 4 2.4", 960, 576)
    lines += _axes(-2.0, 2.0, -0.6, 1.8)
    for c, color in curves:
        lines.append(_path(_geodesic_points(c, landing_time(c)), color,
                           attrs=f'data-c="{_fmt(c)}" '))
    lines.append(f'<circle cx="{_fmt(target.x)}" cy="{_fmt(-target.y)}" '
                 'r="0.035" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


FIG3_OMEGAS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)
FIG3_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def figure_su2() -> str:
    """SU(2) geodesics (blue) and reachable-set boundaries (red)."""
    lines = _header("-1.3 -1.3 2.6 2.6", 800, 800)
    lines += _axes(-1.3, 1.3, -1.3, 1.3)
    for omega in FIG3_OMEGAS:
        pts = [su2_planar_geodesic(omega, su2_landing_time(omega) * i / (_SAMPLES - 1))
               for i in range(_SAMPLES)]
        lines.append(_path(pts, "blue", attrs=f'data-omega="{_fmt(omega)}" ',
                           width=0.008))
    for s in FIG3_TIMES:
        pts = reachable_boundary(s, 256)
        lines.append(_path(pts, "red", attrs=f'data-s="{_fmt(s)}" ',
                           width=0.008))
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
