"""Gap diagrams for plane semigroups: SVG by default, ASCII for terminals.

Lattice points inside the cone window are drawn as filled circles
(elements) or hollow circles (gaps), with the two boundary rays as lines
from the origin.  Output is built by string concatenation over integers
and exact rationals only, so identical inputs give identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceeded, NotCSemigroup, SemigroupError
from .semigroups import DEFAULT_BUDGET, GapSemigroup, gaps

CELL = 24
MARGIN = 30
RADIUS = 6


def _require_plane(S):
    if S.dim != 2:
        raise SemigroupError(f"plotting supports dimension 2 only, got {S.dim}")


def _default_window(S, budget):
    """Three columns and two rows past the gaps and minimal generators.

    A semigroup given by generators has its gaps listed under ``budget``;
    one with infinitely many gaps is sized from its generators alone.
    """
    pts = set(S.minimal_generators())
    try:
        pts.update(S.gaps if isinstance(S, GapSemigroup) else gaps(S, budget).gaps)
    except NotCSemigroup:
        pass
    wx = max((p[0] for p in pts), default=6) + 3
    wy = max((p[1] for p in pts), default=3) + 2
    return wx, wy


def _window(S, window, budget):
    """The window to draw, given or default, once S is known to be plane.

    Drawing visits each of the window's lattice points, so a window that
    holds more than ``budget`` of them raises :class:`BudgetExceeded` before
    anything is drawn.
    """
    _require_plane(S)
    wx, wy = window if window is not None else _default_window(S, budget)
    points = (wx + 1) * (wy + 1)
    if points > budget:
        raise BudgetExceeded(
            f"the {wx}x{wy} window holds {points} lattice points, "
            f"more than the budget {budget}"
        )
    return wx, wy


def _frac_str(value: Fraction) -> str:
    """Deterministic decimal rendering with three places, exact truncation."""
    milli = (value.numerator * 1000) // value.denominator
    sign = "-" if milli < 0 else ""
    milli = abs(milli)
    return f"{sign}{milli // 1000}.{milli % 1000:03d}"


def _ray_endpoint(d, wx, wy):
    """Intersection of the ray from the origin with the window border."""
    candidates = []
    if d[0]:
        candidates.append(Fraction(wx, d[0]))
    if d[1]:
        candidates.append(Fraction(wy, d[1]))
    t = min(candidates)
    return (t * d[0], t * d[1])


def render_svg(S, window=None, budget=DEFAULT_BUDGET) -> str:
    """SVG 1.1 document of the semigroup within ``window = (wx, wy)``."""
    wx, wy = _window(S, window, budget)
    width = wx * CELL + 2 * MARGIN
    height = wy * CELL + 2 * MARGIN

    def px(x):
        return MARGIN + x * CELL

    def py(y):
        return height - MARGIN - y * CELL

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(wx)}" y2="{py(0)}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(wy)}" '
        'stroke="#999" stroke-width="1"/>',
    ]
    for d in S.cone.rays:
        ex, ey = _ray_endpoint(d, wx, wy)
        lines.append(
            f'<line x1="{px(0)}" y1="{py(0)}" '
            f'x2="{_frac_str(MARGIN + ex * CELL)}" '
            f'y2="{_frac_str(height - MARGIN - ey * CELL)}" '
            'stroke="#444" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for x in range(wx + 1):
        for y in range(wy + 1):
            p = (x, y)
            if not S.cone.contains(p):
                continue
            if S.contains(p):
                lines.append(
                    f'<circle cx="{px(x)}" cy="{py(y)}" r="{RADIUS}" '
                    'fill="#c0392b" stroke="#7b241c" stroke-width="1"/>'
                )
            else:
                lines.append(
                    f'<circle cx="{px(x)}" cy="{py(y)}" r="{RADIUS}" '
                    'fill="none" stroke="#2c3e50" stroke-width="1.5"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_ascii(S, window=None, budget=DEFAULT_BUDGET) -> str:
    """Terminal diagram: '*' element, 'o' gap, '.' cone-free window point."""
    wx, wy = _window(S, window, budget)
    rows = []
    for y in range(wy, -1, -1):
        cells = []
        for x in range(wx + 1):
            p = (x, y)
            if not S.cone.contains(p):
                cells.append(".")
            elif S.contains(p):
                cells.append("*")
            else:
                cells.append("o")
        rows.append(f"{y:>3} " + " ".join(cells))
    axis = "    " + " ".join(str(x % 10) for x in range(wx + 1))
    rows.append(axis)
    return "\n".join(rows) + "\n"
