"""Deterministic SVG rendering of planar (d = 2) packing documents.

Every entry becomes exactly one SVG element in document order: a
``<circle>`` for an ordinary disk, an even-odd ``<path>`` for the
complement of a disk (negative curvature), and a clipped polygon for a
half-plane.  All numbers are printed with one fixed format, so rendering
the same document twice yields byte-identical output.  The floats come
from the columns of :func:`documents.derived_rows`, computed for a block
of entries at a time: an exact scalar pa/qa + (pb/qb) sqrt(m) becomes
pa/qa + (pb/qb) * sqrt(m) in int division, which is correctly rounded, so
it is the float that ``QuadScalar.__float__`` gives for the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .documents import PackingDocument, derived_rows
from .exactnum import quad_float

DEFAULT_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


@dataclass(frozen=True)
class RenderSpec:
    """Viewport and styling for render_svg.

    The viewport is (x, y, width, height) in model units with y pointing
    up; width and height must be positive.  Half-planes and disk
    complements are drawn out to the viewport extended by
    ``halfspace_margin`` so their edges never show inside the frame.
    Disks with radius above ``max_radius_clip`` (when set) are omitted.
    """

    viewport: tuple = (-4.0, -4.0, 8.0, 8.0)
    stroke_width: float = 0.02
    stroke: str = "#1a1a1a"
    palette: tuple = DEFAULT_PALETTE
    max_radius_clip: Optional[float] = None
    halfspace_margin: float = 0.1

    def __post_init__(self):
        x, y, w, h = self.viewport
        if not (w > 0 and h > 0):
            raise ValueError("viewport width and height must be positive")
        if not self.palette:
            raise ValueError("palette must not be empty")

    def extended_box(self) -> tuple:
        """Corners of the viewport grown by the half-space margin."""
        x, y, w, h = self.viewport
        mx, my = w * self.halfspace_margin, h * self.halfspace_margin
        return (x - mx, y - my, x + w + mx, y + h + my)


def _shapes(doc: PackingDocument):
    """(orientation, first, second, orbit) of each entry, the geometry of
    :func:`documents.derived_rows` in floats: a center and a radius, or a
    normal and an offset."""
    root = math.sqrt(doc.m)
    for entries, (_, _, shape, first, second) in derived_rows(doc):
        if not doc.is_float:
            first, second = (np.asarray(quad_float(x, root), dtype=np.float64) for x in (first, second))
        yield from zip(shape.tolist(), first.tolist(), second.tolist(), doc.orbit[entries])


def _fmt(v) -> str:
    return format(float(v) + 0.0, ".9g")


def _clip_halfplane(poly, nx, ny, t):
    """Sutherland-Hodgman clip of a polygon against n . x >= t."""
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        dp = nx * p[0] + ny * p[1] - t
        dq = nx * q[0] + ny * q[1] - t
        if dp >= 0:
            out.append(p)
        if (dp >= 0) != (dq >= 0):
            s = dp / (dp - dq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def _box_path(x0, y0, x1, y1) -> str:
    # SVG y axis points down; we store model y and negate on output
    return (
        f"M {_fmt(x0)} {_fmt(-y1)} H {_fmt(x1)} V {_fmt(-y0)} "
        f"H {_fmt(x0)} Z"
    )


def _circle_subpath(cx, cy, r) -> str:
    a, b = cx + r, cx - r
    y = -cy
    return (
        f"M {_fmt(a)} {_fmt(y)} "
        f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(b)} {_fmt(y)} "
        f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(a)} {_fmt(y)} Z"
    )


def render_svg(doc: PackingDocument, spec: Optional[RenderSpec] = None) -> str:
    """Render a planar document to an SVG string."""
    if doc.dimension != 2:
        raise ValueError(f"can only render d=2 documents, got d={doc.dimension}")
    spec = spec or RenderSpec()
    x, y, w, h = (float(v) for v in spec.viewport)
    bx0, by0, bx1, by1 = spec.extended_box()
    box = [(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1)]
    npal = len(spec.palette)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="640" height="{_fmt(640 * h / w)}" '
        f'viewBox="{_fmt(x)} {_fmt(-(y + h))} {_fmt(w)} {_fmt(h)}">'
    ]
    style = f'stroke="{spec.stroke}" stroke-width="{_fmt(spec.stroke_width)}"'
    for orientation, (cx, cy), r, orbit in _shapes(doc):
        fill = spec.palette[orbit % npal]
        if orientation == 0:
            poly = _clip_halfplane(box, cx, cy, r)  # normal and offset
            if len(poly) < 3:
                continue
            pts = " ".join(f"{_fmt(px)},{_fmt(-py)}" for px, py in poly)
            parts.append(f'<polygon points="{pts}" fill="{fill}" {style}/>')
            continue
        if spec.max_radius_clip is not None and r > spec.max_radius_clip:
            continue
        if orientation < 0:
            d_attr = _box_path(bx0, by0, bx1, by1) + " " + _circle_subpath(cx, cy, r)
            parts.append(
                f'<path fill-rule="evenodd" d="{d_attr}" fill="{fill}" {style}/>'
            )
        else:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                f'fill="{fill}" {style}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
