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

import numpy as np

from .foliation import Foliation2, compact_leaves, integrate_leaf


# the picture: a SEEDS x SEEDS grid of flow lines, each LENGTH long in arc
# length, in a SIZE px square framed MARGIN px in from its edge
SEEDS = 4
LENGTH = 2.5
SIZE = 480
MARGIN = 20
INNER = SIZE - 2 * MARGIN
FLOW_COLOR = "#8a8f98"
LEAF_COLOR = "#c0392b"
STROKE = 1.0
LEAF_STROKE = 2.5


def _wrap_segments(pts: np.ndarray) -> list[np.ndarray]:
    """Fold a polyline into the unit square, splitting where it wraps."""
    folded = pts % 1.0
    jumps = np.abs(np.diff(folded, axis=0)).max(axis=1) > 0.5
    cuts = np.flatnonzero(jumps) + 1
    return [s for s in np.split(folded, cuts) if len(s) >= 2]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def pixel(self, u: float, v: float) -> tuple[float, float]:
        return MARGIN + u * INNER, MARGIN + (1.0 - v) * INNER

    def polyline(self, seg: np.ndarray, color: str, width: float):
        px, py = MARGIN + seg[:, 0] * INNER, MARGIN + (1.0 - seg[:, 1]) * INNER  # as in pixel
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
        s, m = SIZE, MARGIN
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
            f'viewBox="0 0 {s} {s}">\n'
            f'<rect x="0" y="0" width="{s}" height="{s}" fill="#ffffff"/>\n'
            f'<rect x="{m}" y="{m}" width="{INNER}" height="{INNER}" '
            'fill="none" stroke="#222222" stroke-width="1"/>\n'
        )
        return header + "\n".join(self.parts) + "\n</svg>\n"


def render_foliation(F: Foliation2) -> str:
    """The SVG picture of F: the flow lines from the seed grid and, over
    them, the compact leaves ``compact_leaves`` finds."""
    canvas = _Canvas()
    seeds = [((i + 0.5) / SEEDS, (j + 0.5) / SEEDS) for i in range(SEEDS) for j in range(SEEDS)]
    # one RK4 step per drawn vertex, 0.02 apart in arc length
    tracks = integrate_leaf(F, np.reshape(seeds, (-1, 2)), LENGTH, 0.02)
    for pts in tracks:
        segs = _wrap_segments(pts)
        for seg in segs:
            canvas.polyline(seg, FLOW_COLOR, STROKE)
        if segs:
            canvas.arrowhead(max(segs, key=len), FLOW_COLOR)
    for leaf in sorted(compact_leaves(F), key=lambda l: (l.point, l.cls)):
        for seg in _wrap_segments(leaf.path):
            canvas.polyline(seg, LEAF_COLOR, LEAF_STROKE)

    return canvas.document()
