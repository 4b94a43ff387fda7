"""SVG rendering of planar PL sets.

Each cell is clipped to the viewport with exact rational arithmetic
(Sutherland-Hodgman against every half-plane), filled lightly, and its
active boundary pieces are stroked: dashed for strict constraints, solid
for non-strict ones.  Rationals turn into decimal text only at write-out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, ValidationError
from .geometry import PLSet
from .qe import is_empty_cell
from .rationals import HalfSpace, Vec, dot, frac

_FILL = "#4477aa"
_STROKE = "#223355"


def _clip_polygon(points: list[Vec], h: HalfSpace) -> list[Vec]:
    """Clip a convex polygon by the (relaxed) half-plane of ``h``."""
    if not points:
        return []
    out: list[Vec] = []
    m = len(points)
    for i in range(m):
        p, q = points[i], points[(i + 1) % m]
        pin = dot(h.normal, p) <= h.offset
        qin = dot(h.normal, q) <= h.offset
        if pin:
            out.append(p)
        if pin != qin:
            denom = dot(h.normal, q) - dot(h.normal, p)
            t = (h.offset - dot(h.normal, p)) / denom
            out.append(tuple(pp + t * (qq - pp) for pp, qq in zip(p, q)))
    dedup: list[Vec] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _box_polygon(lo: Vec, hi: Vec) -> list[Vec]:
    (x0, y0), (x1, y1) = lo, hi
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _fmt(x: Fraction) -> str:
    return f"{float(x):.6g}"


def render_plset(
    s: PLSet,
    lo: Sequence,
    hi: Sequence,
    width: int = 480,
) -> str:
    """Render a 2-dimensional PL set clipped to the viewport box."""
    if s.dim != 2:
        raise DimensionMismatch("SVG rendering is only available for n=2")
    lov = tuple(frac(x) for x in lo)
    hiv = tuple(frac(x) for x in hi)
    if len(lov) != 2 or len(hiv) != 2 or lov[0] >= hiv[0] or lov[1] >= hiv[1]:
        raise ValidationError("viewport box must be [x0,y0],[x1,y1] with x0<x1, y0<y1")
    if width < 1:
        raise ValidationError(f"SVG width must be at least 1 pixel, got {width}")
    spanx, spany = hiv[0] - lov[0], hiv[1] - lov[1]
    height = int(width * spany / spanx)
    if height < 1:
        raise ValidationError(f"viewport box too flat: 0 pixels high at width {width}")
    scale = Fraction(width) / spanx

    def to_px(p: Vec) -> tuple[str, str]:
        # y axis flips: SVG grows downward
        return (_fmt((p[0] - lov[0]) * scale), _fmt((hiv[1] - p[1]) * scale))

    fills: list[str] = []
    edges: list[str] = []
    for c in s.cells:
        if is_empty_cell(c):
            continue
        poly = _box_polygon(lov, hiv)
        for h in c.constraints:
            poly = _clip_polygon(poly, h.relaxed())
            if not poly:
                break
        if not poly:
            continue
        if len(poly) >= 3:
            pts = " ".join(",".join(to_px(p)) for p in poly)
            fills.append(
                f'<polygon points="{pts}" fill="{_FILL}" fill-opacity="0.25" stroke="none"/>'
            )
        # boundary pieces: for each constraint, the polygon edge on its line
        for h in c.constraints:
            on_line = [p for p in poly if dot(h.normal, p) == h.offset]
            if len(on_line) < 2:
                continue
            a, b = on_line[0], on_line[-1]
            if a == b:
                continue
            (ax, ay), (bx, by) = to_px(a), to_px(b)
            dash = ' stroke-dasharray="6 4"' if h.strict else ""
            edges.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                f'stroke="{_STROKE}" stroke-width="1.5"{dash}/>'
            )
    body = "\n".join(fills + edges)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )
