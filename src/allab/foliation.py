"""Oriented foliations on the 2-torus given by nowhere-vanishing direction
fields (V1(u,v), V2(u,v)).

The analysis toolbox: loop winding of the direction map, leaf integration in
the universal cover, first-return maps on axis circles with rotation numbers,
compact-leaf detection, Reeb annuli, and the parallel-leaf / cone-separation
tests used by the pre-Lagrangian pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import AllabError
from . import expr as ex
from .expr import Expr, compile_field, compile_kernel
from .geom import DifferentialForm, UV, curl_residual, grid_argmin, one_form, torus_samples


class FoliationError(AllabError):
    pass


class WindingError(FoliationError):
    """The loop samples do not resolve the field's direction."""


class TransversalError(FoliationError):
    """The direction field is tangent to the chosen circle somewhere; this is
    exactly the Reeb-carrying situation, so no return map exists."""


@dataclass(frozen=True)
class Foliation2:
    """The oriented foliation of the direction field (V1, V2) on the torus.

    It is refused unless (V1, V2) is finite and nonzero on the 256 x 256
    grid, and 1-periodic in u and in v on the 33 x 33 grid of [0, 1]^2.  The
    checks evaluate each component at its kernel's shape (``torus_samples``),
    so a constant field costs one value, not a grid; a refusal names the
    first failing point of the full grid (``grid_argmin``)."""

    V1: Expr
    V2: Expr

    @np.errstate(all="ignore")  # a domain error gives NaN, refused below
    def __post_init__(self):
        n = 256
        t = np.arange(n) / n
        grid = (t[:, None], t)
        v1, v2 = torus_samples(self.V1, n), torus_samples(self.V2, n)
        finite = np.isfinite(v1) & np.isfinite(v2)
        if not finite.all():
            _, (i, j) = grid_argmin(finite, grid)  # the first False
            raise FoliationError(
                f"direction field is not finite at (u, v) = ({i:.4f}, {j:.4f})"
            )
        low, (i, j) = grid_argmin(np.hypot(v1, v2), grid)
        if low <= 1e-9:
            raise FoliationError(
                f"direction field vanishes near (u, v) = ({i:.4f}, {j:.4f}): "
                f"|V| = {low:.2e}, not above 1e-09"
            )
        t = np.linspace(0.0, 1.0, 33)
        u = t[:, None]
        gaps = []
        for e in (self.V1, self.V2):
            fn = compile_kernel(e, UV)
            at = fn(u, t)
            gaps += [np.max(np.abs(fn(u, t + 1.0) - at)), np.max(np.abs(fn(u + 1.0, t) - at))]
        worst = float(np.max(gaps))
        if not worst <= 1e-9:  # NaN refuses too
            raise FoliationError(f"field is not 1-periodic (residual {worst:.2e})")

    @staticmethod
    def from_form(a: DifferentialForm) -> "Foliation2":
        """Kernel foliation of a 1-form on the torus, oriented by rotating
        the coefficient vector a quarter turn."""
        if a.coords != UV or a.degree != 1:
            raise FoliationError("defining form must be a 1-form on (u, v)")
        return Foliation2(ex.neg(a.coeff((1,))), a.coeff((0,)))

    @property
    def form(self) -> DifferentialForm:
        """The defining 1-form V2 du - V1 dv.  For ``from_form(a)`` it is a,
        coefficient by coefficient: negating a coefficient twice keeps its
        values bit for bit."""
        return one_form(UV, self.V2, ex.neg(self.V1))

    @property
    def closed_form(self) -> bool:
        """Whether the defining 1-form is closed."""
        return curl_residual(self.form) < 1e-9


def constant_slope(rho: float) -> Foliation2:
    return Foliation2(ex.ONE, ex.const(float(rho)))


# ---------------------------------------------------------------------------
# winding

# node counts on each loop, from the fewest: winding reads each loop on the
# first count that resolves the field there
_WINDING_NODES = tuple(1024 * 4**i for i in range(6))  # up to 2^20
_TURN = 2.0 * math.pi
_EIGHTH = math.pi / 4  # the most a step between neighbouring samples may turn


@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def winding(F: Foliation2) -> tuple[int, int]:
    """Degrees of V/|V| along the loops v = 0 and u = 0.  Around a loop the
    steps between neighbouring samples of the angle (from arctan2) add up to
    zero, so its net turn is minus the whole turns taken off them: an exact
    integer once no step, less its whole turns, turns by more than pi/4."""
    f1, f2 = compile_field(F.V1, UV), compile_field(F.V2, UV)
    out = []
    for along in ("u", "v"):
        for n in _WINDING_NODES:
            t = np.arange(n) / n
            u, v = (t, 0.0) if along == "u" else (0.0, t)
            angle = np.arctan2(f2(u, v), f1(u, v))
            if not np.isfinite(angle).all():
                raise WindingError(f"the field is not finite on the loop along {along}")
            step = np.diff(angle, append=angle[:1])
            whole = np.rint(np.divide(step, _TURN))
            if np.abs(step - _TURN * whole).max() <= _EIGHTH:
                out.append(-int(whole.sum()))
                break
        else:
            raise WindingError(
                f"the field turns by more than pi/4 between neighbouring "
                f"nodes of {n} on the loop along {along}"
            )
    return out[0], out[1]


# ---------------------------------------------------------------------------
# leaf integration

_NOT_FINITE = "the direction field is not finite off its validation grid"


def _rk4(rhs, x: float, y: np.ndarray, h: float, n: int, out=None) -> np.ndarray:
    """n classical RK4 steps of dy/dx = rhs(x, y) for an array of states y;
    returns the last state, and writes every state to ``out[0..n]`` if given:
    all of it, or its leading block of shape ``out.shape[1:]``.  Every stage
    evaluates rhs at every point: the route of a field that uses y
    (``_quadrature`` is the route of one that does not)."""
    h2, h6 = 0.5 * h, h / 6.0  # 0.5 * h * k already evaluates as (0.5 * h) * k
    if out is not None:
        keep = tuple(map(slice, out.shape[1:]))
        out[0] = y[keep]
    for i in range(n):
        k1 = rhs(x, y)
        k2 = rhs(x + h2, y + h2 * k1)
        k3 = rhs(x + h2, y + h2 * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
        if out is not None:
            out[i + 1] = y[keep]
    return y


def _quadrature(slope, x: float, y: np.ndarray, h: float, n: int, out) -> np.ndarray:
    """``_rk4`` for a slope of x alone, bit for bit: RK4 is then a quadrature
    whose n increments all points share.  The slope is evaluated once, on the
    array of its 2n + 1 stage abscissae, built as ``_rk4`` builds them (x +=
    h in order, then x + h/2 and x + h, which is the next x); the increments
    h/6 (k1 + 2 k2 + 2 k3 + k4) are formed in ``_rk4``'s order and stacked
    under the points, row 0, and one sequential accumulate down the rows
    adds them in step order: row i is state i."""
    h2, h6 = 0.5 * h, h / 6.0
    xs = np.full(n + 1, h)
    xs[0] = x
    np.add.accumulate(xs, out=xs)  # sequential: xs[i + 1] = xs[i] + h
    k = np.broadcast_to(slope(np.concatenate([xs, xs[:-1] + h2]), 0.0), (2 * n + 1,))
    k1, k4, k2 = k[:n], k[1 : n + 1], k[n + 1 :]  # k3 = k2: the slope ignores y
    step = h6 * (k1 + 2 * k2 + 2 * k2 + k4)
    states = np.empty((n + 1,) + np.shape(y))
    states[0], states[1:] = y, step.reshape((n,) + (1,) * np.ndim(y))
    np.add.accumulate(states, axis=0, out=states)  # sequential, as y = y + step[i]
    if out is not None:
        out[:] = states[(slice(None),) + tuple(map(slice, out.shape[1:]))]
    return states[-1]


_MAX_LEAF_STEPS = 10**6  # the most steps integrate_leaf takes: 16 MB of polyline per start


@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def integrate_leaf(
    F: Foliation2,
    start: tuple[float, float] | np.ndarray,
    length: float,
    max_step: float = 1e-3,
) -> np.ndarray:
    """Arc-length RK4 trajectory of V/|V| in the universal cover over
    ``length`` in n = max(1, ceil(length / max_step)) equal steps; returns
    the polyline as an (n+1, 2) array starting at ``start``, or a
    (k, n+1, 2) array of k polylines, all integrated in one pass, for a
    (k, 2) array of starts.  More than ``_MAX_LEAF_STEPS`` steps are refused
    before anything is allocated."""
    if not (0 < length < math.inf and 0 < max_step < math.inf):
        raise FoliationError("leaf length and max_step must be positive and finite")
    if not length / max_step <= _MAX_LEAF_STEPS:
        raise FoliationError(
            f"length / max_step = {length / max_step:.3g}: more than {_MAX_LEAF_STEPS} steps")
    f1, f2 = compile_kernel(F.V1, UV), compile_kernel(F.V2, UV)

    def rhs(_, y):  # y[0], y[1]: the u and v rows
        d = np.empty_like(y)  # a kernel may return a float or a lower-rank array
        a, b = f1(y[0], y[1]), f2(y[0], y[1])
        r = np.hypot(a, b)
        np.divide(a, r, out=d[0])
        np.divide(b, r, out=d[1])
        return d

    starts = np.asarray(start, dtype=float)
    n = max(1, math.ceil(length / max_step))
    y = np.reshape(starts, (-1, 2)).T
    pts = np.empty((n + 1,) + y.shape)
    _rk4(rhs, 0.0, y, length / n, n, pts)
    if not np.isfinite(pts).all():
        raise FoliationError(_NOT_FINITE)
    pts = pts.transpose(2, 0, 1)
    return pts[0] if starts.ndim == 1 else pts


# ---------------------------------------------------------------------------
# return maps

_STRIP_STEPS = 256  # RK4 steps across one fundamental strip


def _straight(e: Expr, y: str) -> bool:
    """Whether the slope e leaves y and ``^`` out, so that ``_quadrature``
    integrates it with ``_rk4``'s bits: numpy's power of a scalar calls
    libm's pow and its power of an array a vector loop, which can differ in
    the last bit, while the rest of a kernel is exact arithmetic or ufuncs,
    which run one loop for a scalar and an array."""
    return ex.walk(e, lambda t: t != ex.Var(y),
                   lambda t, *args: all(args) and not (isinstance(t, ex.BinOp) and t.op == "^"))


def _strip_flow(F: Foliation2, axis: str):
    """The slope of the leaves over the coordinate across the circles
    axis = const, as a raw kernel of (x, y); the sign in which the leaves
    cross them; and whether the slope is straight (``_straight``)."""
    comp = torus_samples(F.V1 if axis == "u" else F.V2, 192)
    if not np.isfinite(comp).all():  # NaN fails every comparison below
        raise FoliationError(_NOT_FINITE)
    if np.min(np.abs(comp)) <= 1e-6 or np.min(comp) * np.max(comp) < 0:
        raise TransversalError(
            f"field is tangent to circles {axis} = const somewhere; "
            "the foliation carries Reeb bands in this direction"
        )
    sign = 1 if comp.flat[0] > 0 else -1
    if axis == "u":  # dy/dx along the leaf, x = u
        slope, names = ex.div(F.V2, F.V1), ("u", "v")
    else:  # x = v
        slope, names = ex.div(F.V1, F.V2), ("v", "u")
    return compile_kernel(slope, names), sign, _straight(slope, names[1])


def _lifts(flow, x0: float, ts, q: int, out=None) -> np.ndarray:
    """lift^k(ts) for k = 1..q, as a (q, ...) array: the leaves through the
    points ts of the circle x = x0, integrated across q fundamental strips,
    by ``_quadrature`` for a straight slope and by ``_rk4`` otherwise, with
    the same bits.  With ``out``, a (q * _STRIP_STEPS + 1, ...) array, every
    RK4 state goes there too (its leading block, as in ``_rk4``): state i
    lies on the circle x = x0 + sign * i / _STRIP_STEPS.
    x goes in as a numpy float (an array of them for ``_quadrature``), so
    the slope kernel keeps numpy's semantics (a pole gives inf, not
    ZeroDivisionError) on terms of x alone."""
    slope, sign, straight = flow
    march = _quadrature if straight else _rk4
    lifts = np.empty((q,) + np.shape(ts))
    for k in range(q):
        y = lifts[k - 1] if k else ts
        states = None if out is None else out[k * _STRIP_STEPS : (k + 1) * _STRIP_STEPS + 1]
        lifts[k] = march(
            slope, np.float64(x0 + sign * k), y, sign / _STRIP_STEPS, _STRIP_STEPS, states
        )
    if not np.isfinite(lifts).all():
        raise FoliationError(_NOT_FINITE)
    return lifts


# offsets from a root estimate x at which _refine samples a bracket, besides
# cutting it in eighths: a pass of _lifts costs about as much for 64 points as
# for 4.  The innermost is 5e-15, so that the cell between x and a neighbour
# passes the 1e-14 test after rounding.
_LADDER = np.array([-1e-5, -1e-8, -1e-11, -5e-15, 0.0, 5e-15, 1e-11, 1e-8, 1e-5])


def _refine(f, x, lo, hi, flo, fhi, *params, states=None) -> np.ndarray:
    """Roots of f in the brackets [lo, hi], where f takes the values flo and fhi
    of opposite signs, all at once, from the estimates x.  Each pass calls f
    once, as f(pts, *params), on the brackets still live: one row of pts per
    bracket, cut in eighths, and x + _LADDER clipped into it; params hold one
    value per bracket and are cut to the same rows.  The narrowest sign change
    is the next bracket, hi its end nearer zero, and the secant there the next
    x: a bracket shrinks 8-fold a pass at least, and an x within 1e-9 of the
    root ends it in two.  A bracket settles, and leaves the batch, at
    |hi - lo| <= 1e-14 or f(hi) = 0, its root a point of the last call it was
    in.  A pair of ends of one sign comes back as hi.

    With ``states``, an (m, brackets) array, f also takes ``out``, an (m,
    rows, points) array for the m states behind each value, and each
    bracket's column at its root goes to states[:, bracket].  A root f never
    saw (a bracket settled from the start) gets its column from one last
    call."""
    x, lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (x, lo, hi, flo, fhi))
    seen = np.zeros(len(hi), dtype=bool)
    # one buffer for every pass: 9 points a bracket besides the ladder
    buf = None if states is None else np.empty((len(states), len(hi), 9 + len(_LADDER)))

    def call(rows, pts):
        args = [p[rows] for p in params]
        if buf is None:
            return f(pts, *args), None
        out = buf[:, : len(rows), : pts.shape[1]]
        return f(pts, *args, out=out), out

    for _ in range(100):
        rows = np.flatnonzero((flo * fhi <= 0) & (fhi != 0) & (np.abs(hi - lo) > 1e-14))
        if not rows.size:
            break
        a, b = np.minimum(lo[rows], hi[rows])[:, None], np.maximum(lo[rows], hi[rows])[:, None]
        pts = np.hstack([a + (b - a) * np.arange(8) / 8, b, np.clip(x[rows, None] + _LADDER, a, b)])
        pts = np.sort(pts)
        val, out = call(rows, pts)
        width = np.where(val[:, 1:] * val[:, :-1] <= 0, np.diff(pts), np.inf)
        j = np.argmin(width, axis=1)[:, None] + [0, 1]
        ends, fends = np.take_along_axis(pts, j, 1), np.take_along_axis(val, j, 1)
        k = np.argsort(np.abs(fends), axis=1, kind="stable")  # hi, then lo
        (h, l), (fh, fl) = np.take_along_axis(ends, k, 1).T, np.take_along_axis(fends, k, 1).T
        hi[rows], lo[rows], fhi[rows], flo[rows] = h, l, fh, fl
        x[rows] = h - fh * (h - l) / np.where(fh != fl, fh - fl, 1.0)
        if out is not None:  # the column of each new hi
            states[:, rows] = out[:, np.arange(len(rows)), np.take_along_axis(j, k[:, :1], 1)[:, 0]]
        seen[rows] = True
    if states is not None and (rows := np.flatnonzero(~seen)).size:
        states[:, rows] = call(rows, hi[rows, None])[1][:, :, 0]
    return hi


@dataclass(frozen=True)
class Transversal:
    axis: str  # "u" (circle u = value, parameterized by v) or "v"
    value: float = 0.0

    def __post_init__(self):
        if self.axis not in ("u", "v"):
            raise FoliationError("transversal axis must be 'u' or 'v'")
        if not math.isfinite(self.value):
            raise FoliationError(f"transversal value must be finite (value = {self.value})")


_DROP = 1e-12  # far above rounding, far below a scan cell


def _check_lift(ts: np.ndarray, lift: np.ndarray):
    """Refuse a lift that steps down by more than _DROP, an integration that
    does not resolve the field; ties pass, as a contracting field gives them."""
    if (down := np.flatnonzero(np.diff(lift) < -_DROP)).size:
        k = down[0]
        raise FoliationError(f"the return-map lift drops by {lift[k] - lift[k + 1]:.2e} after "
                             f"t = {ts[k]:.6f}: the strip integration does not resolve the field")


@dataclass(frozen=True)
class ReturnMap:
    ts: np.ndarray
    lift_values: np.ndarray

    @staticmethod
    def from_lift_samples(ts: np.ndarray, lifts: np.ndarray) -> "ReturnMap":
        ts, lifts = np.asarray(ts, dtype=float), np.asarray(lifts, dtype=float)
        _check_lift(ts, lifts)
        return ReturnMap(ts, lifts)

    def lift(self, t):
        """The lift, interpolating the 1-periodic lift(t) - t linearly."""
        t = np.asarray(t, dtype=float)
        out = t + np.interp(t, self.ts, self.lift_values - self.ts, period=1.0)
        return float(out) if out.ndim == 0 else out

    def degree_check(self) -> bool:
        return abs(self.lift(self.ts[0] + 1.0) - self.lift(self.ts[0]) - 1.0) < 1e-6


@np.errstate(all="ignore")  # a domain error gives NaN, refused in _strip_flow, _lifts
def return_map(F: Foliation2, transversal: Transversal) -> ReturnMap:
    """First-return map of the foliation on an axis circle, tabulated by
    integrating the leaves across one fundamental strip."""
    ts = np.arange(1024) / 1024
    flow = _strip_flow(F, transversal.axis)
    return ReturnMap.from_lift_samples(ts, _lifts(flow, float(transversal.value), ts, 1)[0])


def rotation_number(R: ReturnMap, iterations: int = 10000) -> tuple[float, float]:
    """Birkhoff average of the lift displacement; the error bound 1/n is the
    standard one for monotone circle maps."""
    if iterations < 1:
        raise FoliationError("rotation_number needs at least one iteration")
    t0 = t = float(R.ts[0])
    for _ in range(iterations):
        t = R.lift(t)
    return (t - t0) / iterations, 1.0 / iterations


# ---------------------------------------------------------------------------
# compact leaves

_SAME = 1e-7  # leaf points closer than this are one leaf
_SCAN = 1024  # cells of the periodic-point scan on the transversal


@dataclass(frozen=True)
class CompactLeaf:
    """A compact leaf through ``point`` in class ``cls``.  ``path`` is the
    closed leaf in the universal cover, an (m, 2) array from point to point +
    cls, as its detector found it: an axis circle is straight, in
    _STRIP_STEPS steps, and a return-map leaf is the graph of that map's strip
    flow over |q| strips, every RK4 state of the pass that found the point."""

    point: tuple[float, float]
    cls: tuple[int, int]  # primitive homology class, oriented along the leaf
    # the return map that found the leaf: "u" or "v" for the circle axis = 0,
    # on which the point lies; "" for a circle parallel to an axis
    axis: str
    family: bool = False  # every leaf compact (linear rational foliation)
    path: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.path is not None:  # read-only: every caller of the cached detectors shares it
            self.path.flags.writeable = False

    def orientation(self) -> int:
        p, q = self.cls
        return 1 if (q > 0 or (q == 0 and p > 0)) else -1


def _primitive(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(abs(p), abs(q))
    return (p // g, q // g) if g else (p, q)


def _circle_dist(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _axis_leaves(F: Foliation2, axis: str) -> list[CompactLeaf]:
    """Leaves parallel to an axis: circles where the transverse component
    vanishes identically."""
    n_scan = 2048
    e_t, e_a = (F.V1, F.V2) if axis == "u" else (F.V2, F.V1)
    fn_t, fn_a = compile_field(e_t, UV), compile_field(e_a, UV)

    def at(fn, x, y):  # x across the axis, y along it
        return fn(x, y) if axis == "u" else fn(y, x)

    def leaf(x, family):  # the circle axis = x, oriented by the field on it
        s = 1 if at(fn_a, x, 0.5) > 0 else -1
        point, cls = ((x, 0.0), (0, s)) if axis == "u" else ((0.0, x), (s, 0))
        c = 1 if axis == "u" else 0  # the coordinate along the circle; the other keeps its bits
        path = np.tile(point, (_STRIP_STEPS + 1, 1))
        path[:, c] += cls[c] * (np.arange(_STRIP_STEPS + 1) / _STRIP_STEPS)
        return CompactLeaf(point, cls, "", family, path)

    vs = np.arange(17) / 17.0
    xs = np.arange(n_scan) / n_scan
    # the largest |component| on each circle, taken at the kernel's shape:
    # one value for a component that does not use the coordinate across them
    prof = np.atleast_1d(at(compile_kernel(e_t, UV), xs[:, None], vs))
    prof = np.broadcast_to(np.max(np.abs(prof), axis=-1), xs.shape)
    if prof.max() < 1e-8:
        # transverse component vanishes identically: every leaf is an
        # axis-parallel circle
        return [leaf(0.0, True)]
    i = np.flatnonzero((prof <= np.roll(prof, 1)) & (prof <= np.roll(prof, -1)) & (prof < 0.05))
    if not i.size:  # no circle is a candidate
        return []
    lo, hi = (i - 1) / n_scan, (i + 1) / n_scan
    # a leaf the field crosses is a sign change of the component; one it
    # touches is a double root, where the x-derivative changes sign
    fn_d = compile_field(ex.diff(e_t, axis), UV)
    simple = at(fn_t, lo, 0.37) * at(fn_t, hi, 0.37) < 0

    def f(x, simple):  # x: one row of points per bracket
        return np.where(simple[:, None], at(fn_t, x, 0.37), at(fn_d, x, 0.37))

    flo, fhi = f(np.column_stack([lo, hi]), simple).T
    roots = _refine(f, i / n_scan, lo, hi, flo, fhi, simple)[flo * fhi < 0]
    leaves: list[CompactLeaf] = []
    for x in roots[np.max(np.abs(at(fn_t, roots[:, None], vs)), axis=1) <= 1e-7]:
        x = float(x) % 1.0 % 1.0  # a tiny negative x gives 1.0 under one %
        # each point found is (x, 0) or (0, x), so its sum is its x
        if not any(_circle_dist(x, sum(l.point)) < _SAME for l in leaves):
            leaves.append(leaf(x, False))
    return leaves


def _dips(h: np.ndarray) -> np.ndarray:
    """Cells of the periodic scan h (h[-1] repeats h[0]) that may hold two
    roots: h keeps its sign at a node and its neighbours, is nearest zero at
    the node, and the parabola through the three reaches zero."""
    m, l, r = h[:-1], np.roll(h[:-1], 1), np.roll(h[:-1], -1)
    j = np.flatnonzero(
        (l * m > 0) & (r * m > 0) & (np.abs(m) <= np.minimum(np.abs(l), np.abs(r)))
        & ((r - l) ** 2 > 8.0 * m * (l - 2.0 * m + r))  # its extremum has the other sign
    )
    return np.unique(np.concatenate([j - 1, j]) % _SCAN)


def _seeds(t: np.ndarray, h: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Root estimates in the cells [t[i], t[i + 1]] of the periodic scan h of
    t (h[-1] repeats h[0]): the cubic t(h) through the cell's ends and their
    outer neighbours, at h = 0, or the secant where that is not in the cell."""
    ext = [np.r_[a[-2] - d, a, a[1] + d] for a, d in ((t, 1.0), (h, 0.0))]
    tn, hn = (a[i[:, None] + np.arange(4)] for a in ext)  # nodes i - 1 .. i + 2
    w = hn[:, None, :] / (hn[:, None, :] - hn[:, :, None])  # h_n / (h_n - h_m)
    w[:, np.arange(4), np.arange(4)] = 1.0
    x = np.sum(np.prod(w, axis=2) * tn, axis=1)
    secant = t[i] - h[i] * (t[i + 1] - t[i]) / (h[i + 1] - h[i])
    return np.where((t[i] <= x) & (x <= t[i + 1]), x, secant)


def _return_map_leaves(F: Foliation2, axis: str) -> list[CompactLeaf]:
    """Periodic points of the return map on the circle axis = 0, of period at
    most 8: the roots of lift^q(t) - t - p, scanning one strip q at a time.
    Poincare: an increasing degree-one lift has periodic points only if its
    rotation number rho is rational, all of the minimal period q of rho = p/q.
    The sampled range of lift^q(t) - t, widened by one cell 1/_SCAN, bounds
    q rho.  The scan stops after a period with a leaf, or once no untried
    reduced p/q' (q' <= 8) is in bounds; a lift that steps down
    (``_check_lift``) is refused.  A straight flow (dy/dx of x alone) is a
    rotation: lift(t) - t is the same at every t, so it is sampled at t = 0
    and 1 only, and it has a root only as a whole family of closed leaves.

    Each leaf keeps the RK4 states that found its point as its path: the
    scan's column t = 0 for a family, its root's column of the last
    refinement pass for an isolated leaf."""
    s, straight = (flow := _strip_flow(F, axis))[1:]
    ts = np.linspace(0.0, 1.0, 2 if straight else _SCAN + 1)
    lift, lo, hi = ts, -math.inf, math.inf
    col0 = np.empty((8 * _STRIP_STEPS + 1, 1))  # the scan's leaf through t = 0

    def cls(q, p):  # of a leaf crossing the transversal q times as it turns p times
        return _primitive(s * q, s * p) if axis == "u" else _primitive(s * p, s * q)

    def leaf(t, c, ys, family=False):  # through t on the transversal, ys its states
        x = 0 if axis == "u" else 1  # the coordinate across the strips
        m = abs(c[x]) * _STRIP_STEPS + 1
        path = np.empty((m, 2))
        # a root at 1 (or just below 0) moves by a whole turn onto its point
        path[:, x], path[:, 1 - x] = s * np.arange(m) / _STRIP_STEPS, ys[:m] - (t - t % 1.0)
        point = (0.0, t % 1.0) if axis == "u" else (t % 1.0, 0.0)
        return CompactLeaf(point, c, axis, family, path)

    leaves, known = [], []  # known: (period, point) of each orbit point found
    for q in range(1, 9):
        if q > 1 and (leaves or not any(
                math.gcd(p, k) == 1 for k in range(q, 9)
                for p in range(math.ceil(lo * k), math.floor(hi * k) + 1))):
            break
        strip = col0[(q - 1) * _STRIP_STEPS : q * _STRIP_STEPS + 1]
        lift = _lifts(flow, float(s * (q - 1)), lift, 1, strip)[0]  # the strip q
        _check_lift(ts, lift)
        scan = lift - ts
        lo, hi = max(lo, (scan.min() - 1 / _SCAN) / q), min(hi, (scan.max() + 1 / _SCAN) / q)

        def near(t, radius):  # is a point of a period dividing q within radius?
            x = np.array([x for qq, x in known if q % qq == 0])
            return (_circle_dist(np.reshape(t, (-1, 1)), x) <= radius).any(axis=1)

        brackets = []
        for p in range(math.floor(scan.min()), math.ceil(scan.max()) + 1):
            t, h = ts, scan - p
            if np.max(np.abs(h)) < 1e-9:  # whole family of closed leaves
                if not any(l.family and l.cls == cls(q, p) for l in leaves):
                    leaves.append(leaf(0.0, cls(q, p), col0[:, 0], family=True))
                break
            if straight:  # a rotation has no isolated periodic point
                continue
            cells = ts[_dips(h)]
            cells = cells[~near(cells + 0.5 / _SCAN, 1.5 / _SCAN)]  # its cell or the next
            if cells.size:  # two roots may share a cell: re-scan it finer
                grid = (cells[:, None] + np.arange(1, 64) / (64 * _SCAN)).ravel()
                t = np.concatenate([ts, grid])
                h = np.concatenate([h, _lifts(flow, 0.0, grid, q)[-1] - grid - p])
                t, h = t[np.argsort(t)], h[np.argsort(t)]
            i = np.flatnonzero(np.sign(h[:-1]) * np.sign(h[1:]) <= 0)  # a node's root: 2 cells
            # a bracket near a point found at a period dividing q holds its repeat
            i = i[~near(0.5 * (t[i] + t[i + 1]), 1.5 / _SCAN)]
            brackets += zip([p] * len(i), _seeds(t, h, i), t[i], t[i + 1], h[i], h[i + 1])
        if not brackets:
            continue
        ps, *ends = np.array(brackets).T
        states = np.empty((q * _STRIP_STEPS + 1, len(ps)))
        r = _refine(
            lambda x, p, out: _lifts(flow, 0.0, x, q, out)[-1] - x - p[:, None], *ends, ps,
            states=states,
        )
        for p, t, i in sorted((int(p), float(t), i) for i, (p, t) in enumerate(zip(ps, r))):
            if near(t, _SAME):  # on the orbit of a leaf found before
                continue
            # the orbit: the states on the strips' ends
            known += [(q, float(x)) for x in states[: q * _STRIP_STEPS : _STRIP_STEPS, i]]
            leaves.append(leaf(t, cls(q, p), states[:, i]))
    return leaves


@np.errstate(all="ignore")  # a domain error gives NaN, refused in _strip_flow, _lifts
def compact_leaves(F: Foliation2) -> list[CompactLeaf]:
    """All compact leaves, from two detectors: axis-parallel circles where the
    transverse component vanishes, and periodic points of the return maps,
    scanned only up to the period their rotation number allows (Poincare's
    theorem, ``_return_map_leaves``)."""
    return list(_compact_leaves(F))


@functools.lru_cache(maxsize=2)  # the pair of foliations under analysis
def _compact_leaves(F: Foliation2) -> tuple[CompactLeaf, ...]:
    axis_leaves = _axis_leaves(F, "u") + _axis_leaves(F, "v")
    map_leaves = []
    for axis in ("u", "v"):
        # _strip_flow refuses a field tangent to the circles axis = const; a
        # field crossing them all has every compact leaf cross the transversal
        try:
            map_leaves = _return_map_leaves(F, axis)
            break
        except TransversalError:
            pass
    # the return map finds again each axis leaf that crosses its transversal
    return tuple(axis_leaves) + tuple(
        m for m in map_leaves if not any(_same_leaf(a, m) for a in axis_leaves)
    )


def _same_leaf(a: CompactLeaf, b: CompactLeaf) -> bool:
    return (a.cls, a.family) == (b.cls, b.family) and (
        a.family or np.max(_circle_dist(np.subtract(a.point, b.point), 0.0)) < _SAME
    )


# ---------------------------------------------------------------------------
# Reeb annuli

@dataclass(frozen=True)
class ReebAnnulus:
    axis: str
    band: tuple[float, float]


def reeb_annuli(F: Foliation2, leaves: list[CompactLeaf] | None = None) -> list[ReebAnnulus]:
    """Adjacent pairs of oppositely oriented parallel compact leaves whose
    band interior carries no other compact leaf."""
    leaves = compact_leaves(F) if leaves is None else leaves
    if any(l.family for l in leaves):
        return []
    out = []
    for axis in ("u", "v"):
        want = (0, 1) if axis == "u" else (1, 0)
        axis_leaves = [l for l in leaves if (abs(l.cls[0]), abs(l.cls[1])) == want]
        if len(axis_leaves) < 2:
            continue
        coord = 0 if axis == "u" else 1
        axis_leaves.sort(key=lambda l: l.point[coord])
        others = [l for l in leaves if l not in axis_leaves]
        m = len(axis_leaves)
        for i in range(m):
            a, b = axis_leaves[i], axis_leaves[(i + 1) % m]
            lo, hi = a.point[coord], b.point[coord] + (1.0 if i + 1 == m else 0.0)
            if a.orientation() != b.orientation() and not any(
                lo + 1e-9 < (l.point[coord] + (1.0 if l.point[coord] < lo else 0.0)) < hi - 1e-9
                for l in others
            ):
                out.append(ReebAnnulus(axis, (lo, hi)))
    return out


# ---------------------------------------------------------------------------
# pairs of foliations

@functools.lru_cache(maxsize=2)  # one pair, checked by each stage of a pipeline
@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def _check_transverse_pair(F: Foliation2, G: Foliation2):
    # offset grid: isolated tangency circles (shared compact leaves) should
    # not fail the check, a tangency on a band should.  A pair that fails is
    # not cached, so it raises from every stage that checks it.  Each
    # component is taken at its kernel's shape, so det is too.
    t = (np.arange(128) + 0.382) / 128
    f1, f2, g1, g2 = (compile_kernel(e, UV)(t[:, None], t) for e in (F.V1, F.V2, G.V1, G.V2))
    det = f1 * g2 - f2 * g1
    worst = float(np.min(np.abs(det)))
    if not worst > 1e-9:  # NaN refuses too
        why = "tangent" if np.isfinite(det).all() else "not finite"
        raise FoliationError(f"foliations are {why} somewhere (min |det| = {worst:.2e})")


@dataclass(frozen=True)
class ParallelLeavesVerdict:
    parallel: bool
    witnesses: tuple[tuple[CompactLeaf, CompactLeaf], ...]

    @property
    def verdict(self) -> str:
        return "parallel" if self.parallel else "not_parallel"


def parallel_compact_leaves(F: Foliation2, G: Foliation2) -> ParallelLeavesVerdict:
    """Do F and G carry compact leaves in the same class, up to sign?"""
    _check_transverse_pair(F, G)
    lf, lg = compact_leaves(F), compact_leaves(G)
    witnesses = tuple(
        (a, b) for a in lf for b in lg if a.cls in (b.cls, (-b.cls[0], -b.cls[1]))
    )
    return ParallelLeavesVerdict(bool(witnesses), witnesses)


@dataclass(frozen=True)
class SlopeSearch:
    max_denominator: int = 10
    grid_n = 1024  # a constant, not a field: no caller sets it


def _candidate_directions(max_denominator: int) -> tuple[tuple[int, int], ...]:
    """(du, dv) direction vectors for the slopes p/q in lowest terms with
    |p|, q <= bound, axes first; ordered by denominator so simple answers win."""
    n = max_denominator
    return ((1, 0), (0, 1)) + tuple(
        (q, p) for q in range(1, n + 1) for p in range(-n, n + 1) if p and math.gcd(p, q) == 1
    )


_ROWS = 64  # rows of the grid per block in _direction_arc: a block fits in cache


def _direction_arc(H: Foliation2, t: np.ndarray) -> tuple[float, float] | None:
    """[lo, hi] of the angle of H on the torus grid (t_i, t_j), each sample a
    taken within half a turn of the angle a0 at (t_0, t_0), as
    a - 2 pi rint((a - a0) / 2 pi).  None when two neighbouring samples of it
    differ by more than pi/4: either the grid does not resolve H, or H turns
    half a turn away from a0, and then its arc is at least pi wide.
    FoliationError when a sample is not finite, in any block.

    The angle is evaluated in blocks of _ROWS values of u (a column) by every
    v (a row), plus the next row (row 0 after the last), on open grids: an
    axis that H does not use keeps length 1 and is neither sampled nor
    stepped along.  Each sample's angle depends on that sample alone, so the
    blocks are independent and the arc is the min and max over them."""
    v1, v2 = compile_kernel(H.V1, UV), compile_kernel(H.V2, UV)
    n, lo, hi, a0, resolved = len(t), math.inf, -math.inf, None, True
    for r in range(0, n, _ROWS):
        u = t[np.arange(r, min(r + _ROWS, n) + 1) % n, None]
        angle = np.atleast_2d(np.arctan2(v2(u, t), v1(u, t)))
        if not np.isfinite(angle).all():
            raise FoliationError(_NOT_FINITE)
        if row := len(angle) == 1:  # H does not use u: this row is the whole grid
            angle = angle[[0, 0]]
        a0 = angle[0, 0] if a0 is None else a0
        if resolved:  # once unresolved, the blocks left are only checked to be finite
            angle = angle - _TURN * np.rint((angle - a0) / _TURN)
            du = np.diff(angle, axis=0)
            dv = np.diff(angle[:-1], axis=1, append=angle[:-1, :1])
            # the block's next row is a row of the grid too: it may count here
            if resolved := all(-_EIGHTH <= d.min() and d.max() <= _EIGHTH for d in (du, dv)):
                lo, hi = min(lo, angle.min()), max(hi, angle.max())
        if row:
            break
    return (float(lo), float(hi)) if resolved else None


_BOX = 16  # samples along each side of a box of _enclosed_arc
_ANGLE_SLACK = 1e-12  # outward move of a box's angle bounds: above numpy's arctan2 error


def _enclosed_arc(H: Foliation2, t: np.ndarray) -> tuple[float, float] | None:
    """``_direction_arc(H, t)``, bit for bit, from the samples of only the
    boxes that may hold its ends, once an interval enclosure proves that it
    is an arc; None when the proof fails, and then ``_direction_arc`` decides.

    The grid (len(t) a multiple of _BOX) is cut into closed boxes of _BOX x
    _BOX samples: each also holds the first row and column of the next box,
    at coordinate 1 after the last.  ``expr.interval`` encloses (V1, V2) on
    each box in a rectangle, and the angle by the arctan2 of its four
    corners, moved out by _ANGLE_SLACK.  The proof holds when every box has
    - a finite rectangle: every sample is finite;
    - a rectangle that misses arctan2's branch cut V1 <= 0, V2 = 0 (so the
      origin too): the corners bound the angle;
    - an angle within half a turn of every angle of box (0, 0), which holds
      a0: ``_direction_arc``'s unwrap is the identity;
    - an angle that spans at most pi/4 together with the next box along each
      axis (box 0 after the last): every step between neighbouring samples
      lies within one of those pairs, so the grid resolves H.
    The arc is then the min and max of the raw angles.  No box whose angle
    ends below the largest lower bound holds the max, nor one whose angle
    starts above the smallest upper bound the min; the others are sampled in
    one call of each kernel, at the grid's own floats.  Only a field whose
    components together use u and v is tried: ``_direction_arc`` samples a
    field of one variable or none at n points or one."""
    if isinstance(H.V1, ex.Const) and isinstance(H.V2, ex.Const):
        return None  # one sample: nothing to rule out
    edges = np.append(t, t[0] + 1.0)  # the last box closes at coordinate 1
    lo, hi = edges[:-1:_BOX], edges[_BOX::_BOX]
    box = {"u": (lo[:, None], hi[:, None]), "v": (lo, hi)}
    p1, q1, p2, q2 = np.broadcast_arrays(*ex.interval(H.V1, box), *ex.interval(H.V2, box))
    if p1.shape != (len(lo),) * 2:
        return None  # H leaves u or v out
    if not np.isfinite([p1, q1, p2, q2]).all() or ((p1 <= 0) & (p2 <= 0) & (q2 >= 0)).any():
        return None
    corners = np.arctan2([p2, q2, p2, q2], [p1, p1, q1, q1])
    a_lo, a_hi = corners.min(axis=0) - _ANGLE_SLACK, corners.max(axis=0) + _ANGLE_SLACK
    if not (a_hi.max() < a_lo[0, 0] + math.pi and a_lo.min() > a_hi[0, 0] - math.pi):
        return None
    for axis in (0, 1):
        span = (np.maximum(a_hi, np.roll(a_hi, -1, axis))
                - np.minimum(a_lo, np.roll(a_lo, -1, axis)))
        if not span.max() <= _EIGHTH:
            return None
    i, j = np.nonzero((a_hi >= a_lo.max()) | (a_lo <= a_hi.min()))
    rows = np.arange(_BOX)
    u, v = t[(_BOX * i)[:, None] + rows, None], t[(_BOX * j)[:, None, None] + rows]
    angle = np.arctan2(compile_kernel(H.V2, UV)(u, v), compile_kernel(H.V1, UV)(u, v))
    return float(angle.min()), float(angle.max())


@np.errstate(all="ignore")  # a domain error gives NaN, refused in _direction_arc
def cone_separation(
    F: Foliation2, G: Foliation2, search: SlopeSearch = SlopeSearch()
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Search for two constant directions each transverse to both fields at
    every point of the grid_n x grid_n torus grid; None when no candidate pair
    works at this bound.

    The torus is connected, so a field's line directions (mod pi) fill one
    arc of the circle of directions: [lo, hi] of its angle on the grid, each
    sample taken within half a turn of the angle at (0, 0).  Two routes read
    that arc, with the same bits.  ``_enclosed_arc`` goes first: for a field
    of u and v whose interval enclosure proves every sample finite, within
    half a turn of that angle and resolved (the pi/4 test below), the arc is
    the min and max of the raw samples, and it takes them from the few boxes
    the enclosure cannot rule out, at the grid's own floats.  Otherwise
    ``_direction_arc`` samples the grid (only the axes the field uses), and
    it alone gives every None and every refusal.  A candidate at angle a is
    transverse to every direction t of the arc (|sin(a - t)| > 4e-3) iff a
    lies more than asin(4e-3) outside [lo, hi] mod pi, so nothing clears
    once hi - lo + 2 asin(4e-3) >= pi.  No pair is certified when
    neighbouring samples of that angle differ by more than pi/4: the grid
    does not resolve the field, or the field turns half a turn away from its
    angle at (0, 0) and no direction clears it.
    """
    _check_transverse_pair(F, G)
    t, margin = np.arange(search.grid_n) / search.grid_n, math.asin(4e-3)
    arcs = []
    for H in (F, G):
        if (arc := _enclosed_arc(H, t) or _direction_arc(H, t)) is None:
            return None
        arcs.append(arc)
    good = [
        d for d in _candidate_directions(search.max_denominator)
        if all(
            margin < (math.atan2(d[1], d[0]) - hi) % math.pi < math.pi - (hi - lo) - margin
            for lo, hi in arcs
        )
    ]
    return (good[0], good[1]) if len(good) >= 2 else None
