"""Deterministic DOT and SVG rendering.

DOT output shows the decorated tree: vertices with their degree vectors,
edges labeled by slopes, legs as dashed stubs.  SVG output draws a
two-dimensional fan (rays labeled by their primitive vectors) and can
overlay a realization: vertex positions, edge segments, and leg arrows.
Output order is fixed by the stored graph order, so renders are
byte-identical across runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .combtypes import CombinatorialType
from .cones import ConeComplex
from .smoothing import Realization


class RenderError(ValueError):
    pass


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def render_dot(t: CombinatorialType) -> str:
    lines = ["graph tropical_type {"]
    lines.append('  node [shape=circle, fontsize=10];')
    for v in t.graph.vertices:
        deg = _fmt_vec(t.graph.degrees[v])
        cone = sorted(t.vertex_cones[v])
        lines.append(
            f'  "{v}" [label="{v}\\ndeg={deg}\\ncone={cone}"];'
        )
    for e in t.graph.edges:
        label = (
            _fmt_vec(t.slope_from(e[0], e)) if t.edge_slopes is not None else "?"
        )
        lines.append(f'  "{e[0]}" -- "{e[1]}" [label="{label}"];')
    for v, j in sorted(t.graph.legs, key=lambda x: x[1]):
        slope = _fmt_vec(t.leg_slopes[j])
        lines.append(
            f'  "leg{j}" [shape=none, label="leg {j}\\n{slope}"];'
        )
        lines.append(f'  "{v}" -- "leg{j}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- SVG ----------------------------------------------------------------------

_SIZE = 480
_MARGIN = 40


def _fmt_num(x: Fraction) -> str:
    return f"{float(x):.4f}"


def render_svg(
    fan: ConeComplex,
    t: Optional[CombinatorialType] = None,
    r: Optional[Realization] = None,
) -> str:
    if fan.ambient_dim != 2:
        raise RenderError(
            "SVG rendering is two-dimensional only; use the dot format"
        )
    if r is not None and t is not None and any(
        len(r.vertex_positions.get(v, ())) != 2 for v in t.graph.vertices
    ):
        raise RenderError("the realization must place every vertex in the plane")
    points = [ray for ray in fan.rays]
    if r is not None:
        points.extend(r.vertex_positions.values())
    extent = max(
        (abs(Fraction(x)) for p in points for x in p), default=Fraction(1)
    )
    extent = max(extent, Fraction(1))
    scale = Fraction(_SIZE - 2 * _MARGIN, 2) / extent

    def pix(p):
        cx = Fraction(_SIZE, 2)
        x = cx + Fraction(p[0]) * scale
        y = cx - Fraction(p[1]) * scale
        return _fmt_num(x), _fmt_num(y)

    ox, oy = pix((0, 0))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    ]
    # rays, extended to the drawing extent
    for ray in fan.rays:
        m = max(abs(x) for x in ray)
        tip = tuple(Fraction(x) * extent / m for x in ray)
        tx, ty = pix(tip)
        out.append(
            f'<line class="ray" x1="{ox}" y1="{oy}" x2="{tx}" y2="{ty}" '
            f'stroke="black" stroke-width="1"/>'
        )
        lx, ly = pix(tuple(x * Fraction(11, 10) for x in tip))
        out.append(
            f'<text x="{lx}" y="{ly}" font-size="10">{_fmt_vec(ray)}</text>'
        )
    if r is not None and t is not None:
        for e in t.graph.edges:
            a = pix(r.vertex_positions[e[0]])
            b = pix(r.vertex_positions[e[1]])
            out.append(
                f'<line class="edge" x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" '
                f'y2="{b[1]}" stroke="red" stroke-width="2"/>'
            )
        for v, j in sorted(t.graph.legs, key=lambda x: x[1]):
            p = r.vertex_positions[v]
            slope = t.leg_slopes[j]
            q = tuple(Fraction(a) + Fraction(b) for a, b in zip(p, slope))
            a, b = pix(p), pix(q)
            out.append(
                f'<line class="leg" x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" '
                f'y2="{b[1]}" stroke="blue" stroke-width="1" '
                f'stroke-dasharray="4"/>'
            )
        for v in t.graph.vertices:
            x, y = pix(r.vertex_positions[v])
            out.append(
                f'<circle class="vertex" cx="{x}" cy="{y}" r="4" fill="red"/>'
            )
            out.append(f'<text x="{x}" y="{y}" dx="6" font-size="10">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(
    t: CombinatorialType,
    r: Optional[Realization] = None,
    fmt: str = "dot",
) -> str:
    if fmt == "dot":
        return render_dot(t)
    if fmt == "svg":
        return render_svg(t.target, t, r)
    raise RenderError(f"unknown format: {fmt!r}")
