"""Deterministic SVG pictures of torus foliations: streamlines from a fixed
seed grid, compact leaves emphasized, small arrowheads for orientation.
Byte-identical output for identical inputs.

Only the seeds are integrated as arc-length tracks, in RK4 steps of the
0.02 spacing at which they are drawn, so every state is a vertex.  RK4's
global error is O(h^4): on the built-in foliations a vertex lies within
0.03 px of the same track in steps four times finer, and the tests bound it
by 0.05 px.

Each compact leaf is drawn as the closed path its detector kept
(``CompactLeaf.path``): an axis circle is a straight line, and a return-map leaf
the graph of the strip flow of the map that found it, the RK4 states of the
pass that found the leaf's point, so nothing is integrated again and every
leaf ends on its own start.  Like every polyline, a leaf loses the one step
that crosses the frame edge, its seam included, where the fold cuts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .foliation import CompactLeaf, Foliation2, compact_leaves, integrate_leaf


@dataclass(frozen=True)
class RenderStyle:
    seeds: int = 4
    length: float = 2.5
    # class constants, not fields: no caller draws at another size or colour
    size = 480
    margin = 20
    flow_color = "#8a8f98"
    leaf_color = "#c0392b"
    stroke = 1.0
    leaf_stroke = 2.5


def _wrap_segments(pts: np.ndarray) -> list[np.ndarray]:
    """Fold a polyline into the unit square, splitting where it wraps."""
    folded = pts % 1.0
    jumps = np.abs(np.diff(folded, axis=0)).max(axis=1) > 0.5
    cuts = np.flatnonzero(jumps) + 1
    return [s for s in np.split(folded, cuts) if len(s) >= 2]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, style: RenderStyle):
        self.style = style
        self.inner = style.size - 2 * style.margin
        self.parts: list[str] = []

    def pixel(self, u: float, v: float) -> tuple[float, float]:
        m, s = self.style.margin, self.inner
        return m + u * s, m + (1.0 - v) * s

    def polyline(self, seg: np.ndarray, color: str, width: float):
        m, s = self.style.margin, self.inner
        px, py = m + seg[:, 0] * s, m + (1.0 - seg[:, 1]) * s  # as in pixel
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"/>'
        )

    def arrowhead(self, seg: np.ndarray, color: str):
        i = len(seg) // 2
        p = np.array(self.pixel(*seg[i]))
        q = np.array(self.pixel(*seg[min(i + 1, len(seg) - 1)]))
        d = q - p
        n = float(np.hypot(*d))
        if n < 1e-9:
            return
        d = d / n
        left = np.array([-d[1], d[0]])
        a, b, c = p + 6 * d, p - 3 * d + 3 * left, p - 3 * d - 3 * left
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (a, b, c))
        self.parts.append(f'<polygon points="{pts}" fill="{color}"/>')

    def document(self) -> str:
        s = self.style.size
        m = self.style.margin
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
            f'viewBox="0 0 {s} {s}">\n'
            f'<rect x="0" y="0" width="{s}" height="{s}" fill="#ffffff"/>\n'
            f'<rect x="{m}" y="{m}" width="{self.inner}" height="{self.inner}" '
            'fill="none" stroke="#222222" stroke-width="1"/>\n'
        )
        return header + "\n".join(self.parts) + "\n</svg>\n"


def render_foliation(
    F: Foliation2,
    leaves: list[CompactLeaf] | None = None,
    style: RenderStyle = RenderStyle(),
) -> str:
    if leaves is None:
        leaves = compact_leaves(F)
    canvas = _Canvas(style)

    n = style.seeds
    seeds = [((i + 0.5) / n, (j + 0.5) / n) for i in range(n) for j in range(n)]
    # one RK4 step per drawn vertex, 0.02 apart in arc length
    tracks = integrate_leaf(F, np.reshape(seeds, (-1, 2)), style.length, 0.02)
    for pts in tracks:
        segs = _wrap_segments(pts)
        for seg in segs:
            canvas.polyline(seg, style.flow_color, style.stroke)
        if segs:
            canvas.arrowhead(max(segs, key=len), style.flow_color)
    leaves = sorted(leaves, key=lambda l: (l.point, l.cls))
    for leaf in leaves:
        for seg in _wrap_segments(leaf.path):
            canvas.polyline(seg, style.leaf_color, style.leaf_stroke)

    return canvas.document()
