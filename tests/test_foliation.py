import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from allab import expr as ex
from allab import foliation as fol
from allab import library
from allab import render
from allab.expr import Const, parse_expr, substitute
from allab.foliation import (
    CompactLeaf,
    Foliation2,
    FoliationError,
    ReturnMap,
    SlopeSearch,
    Transversal,
    TransversalError,
    WindingError,
    compact_leaves,
    cone_separation,
    constant_slope,
    integrate_leaf,
    parallel_compact_leaves,
    reeb_annuli,
    return_map,
    rotation_number,
    winding,
)
from allab.geom import UV, one_form

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_foliation_rejects_vanishing_field():
    with pytest.raises(FoliationError, match="vanishes"):
        Foliation2(parse_expr("sin(2*pi*u)"), parse_expr("sin(2*pi*v)"))


def test_foliation_rejects_non_finite_field():
    with pytest.raises(FoliationError, match="not finite"):
        Foliation2(parse_expr("log(0-1)"), parse_expr("1"))


def test_foliation_rejects_nonperiodic_field():
    with pytest.raises(FoliationError, match="periodic"):
        Foliation2(parse_expr("u + 1"), ex.ONE)


def _full_grid_refusal(v1, v2):
    """The refusal of a field that is not finite or vanishes, read off the
    full 256 x 256 grid of both components."""
    n = 256
    t = np.arange(n) / n
    with np.errstate(all="ignore"):
        a, b = (ex.compile_field(parse_expr(e), UV)(t[:, None], t) for e in (v1, v2))
        bad = ~(np.isfinite(a) & np.isfinite(b))
        if bad.any():
            i, j = np.argwhere(bad)[0] / n
            return f"direction field is not finite at (u, v) = ({i:.4f}, {j:.4f})"
        i, j = np.unravel_index(int(np.argmin(np.hypot(a, b))), (n, n))
        return f"direction field vanishes near (u, v) = ({i / n:.4f}, {j / n:.4f})"


@pytest.mark.parametrize("v1, v2, message", [
    # a constant, a field of u alone, of v alone, and of both
    ("log(0-1)", "1", "is not finite at (u, v) = (0.0000, 0.0000)"),
    ("1/(u - 0.375)", "1", "is not finite at (u, v) = (0.3750, 0.0000)"),
    ("1", "1/(v - 0.625)", "is not finite at (u, v) = (0.0000, 0.6250)"),
    ("1/(u + v - 1.375)", "1", "is not finite at (u, v) = (0.3789, 0.9961)"),
    ("1e-10", "0", "vanishes near (u, v) = (0.0000, 0.0000)"),
    ("u - 0.375", "0", "vanishes near (u, v) = (0.3750, 0.0000)"),
    ("0", "v - 0.625", "vanishes near (u, v) = (0.0000, 0.6250)"),
    ("u - 0.375", "v - 0.625", "vanishes near (u, v) = (0.3750, 0.6250)"),
])
def test_foliation_refusals_name_the_first_failing_grid_point(v1, v2, message):
    # the checks run at each kernel's shape, and name the point the full
    # grid names
    with pytest.raises(FoliationError) as err:
        Foliation2(parse_expr(v1), parse_expr(v2))
    assert str(err.value) == "direction field " + message == _full_grid_refusal(v1, v2)


def test_foliation_checks_periodicity_off_the_diagonal():
    # 0.1 u sin(pi (u - v)) repeats on the diagonal u = v but not off it:
    # under u -> u + 1 it moves by 0.1 (2u + 1) sin(pi (u - v)), 0.3 at (1, 1/2)
    with pytest.raises(FoliationError) as err:
        Foliation2(parse_expr("1"), parse_expr("2 + 0.1*u*sin(pi*(u - v))"))
    assert str(err.value) == "field is not 1-periodic (residual 3.00e-01)"


def test_foliation_refuses_a_field_not_finite_at_the_shifted_points():
    # finite on [0, 1]^2, but sqrt(1.5 - u) is NaN at u + 1 > 1.5
    with pytest.raises(FoliationError) as err:
        Foliation2(parse_expr("1 + 0*sqrt(1.5 - u)"), parse_expr("0.4"))
    assert str(err.value) == "field is not 1-periodic (residual nan)"


# ---------------------------------------------------------------------------
# winding

def test_winding_constant():
    assert winding(constant_slope(0.0)) == (0, 0)


def test_winding_degree_one():
    F = Foliation2(parse_expr("cos(2*pi*u)"), parse_expr("sin(2*pi*u)"))
    assert winding(F) == (1, 0)


def test_winding_two_reeb_band():
    assert winding(library.two_reeb_band()) == (-1, 0)


def test_winding_scaling_invariance():
    rng = random.Random(61)
    F = Foliation2(parse_expr("cos(2*pi*u)"), parse_expr("sin(2*pi*u)"))
    base = winding(F)
    for _ in range(10):
        a = rng.uniform(0.2, 2.0)
        k = rng.randint(1, 3)
        scale = parse_expr(f"{1.0 + a} + {a}*sin(2*pi*{k}*u)*cos(2*pi*v)")
        G = Foliation2(ex.mul(scale, F.V1), ex.mul(scale, F.V2))
        assert winding(G) == base


def test_winding_trivial_under_torus_maps():
    V1, V2 = parse_expr("2 + sin(2*pi*u)"), parse_expr("cos(2*pi*v)")
    assert winding(Foliation2(V1, V2)) == (0, 0)
    mats = [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((2, 1), (1, 1)),
        ((0, -1), (1, 0)),
        ((1, 2), (0, 1)),
    ]
    u, v = ex.var("u"), ex.var("v")
    for (a, b), (c, d) in mats:
        sub = {
            "u": ex.zadd(ex.zmul(Const(float(a)), u), ex.zmul(Const(float(b)), v)),
            "v": ex.zadd(ex.zmul(Const(float(c)), u), ex.zmul(Const(float(d)), v)),
        }
        G = Foliation2(substitute(V1, sub), substitute(V2, sub))
        assert winding(G) == (0, 0)


@pytest.mark.parametrize("a, degree", [(1.0007, (0, 0)), (0.9993, (1, 0))])
def test_winding_near_a_zero(a, degree):
    # |V| dips to |a - 1| at u = 1/2, and the direction turns by about pi
    # within 2e-4 of it: only more than 1024 nodes resolve that
    F = Foliation2(parse_expr(f"{a} + cos(2*pi*u)"), parse_expr("sin(2*pi*u)"))
    assert winding(F) == degree


def test_winding_refuses_an_unresolved_field():
    F = Foliation2(parse_expr("1.00000001 + cos(2*pi*u)"), parse_expr("sin(2*pi*u)"))
    with pytest.raises(WindingError, match="pi/4"):
        winding(F)


def test_kernels_refuse_a_field_not_finite_off_the_validation_grid():
    # V1 is NaN wherever cos(512 pi u) < 0.5, which no point u = i/256 meets
    F = Foliation2(parse_expr("1 + 0*sqrt(cos(512*pi*u) - 0.5)"), parse_expr("0.3"))
    with pytest.raises(WindingError, match="not finite"):
        winding(F)
    with pytest.raises(FoliationError, match="not finite"):
        return_map(F, Transversal("u"))
    with pytest.raises(FoliationError, match="not finite"):
        integrate_leaf(F, (0.1, 0.2), 1.0)


def test_compact_leaves_refuse_a_field_not_finite_off_the_validation_grid():
    # the axis scan meets the NaN before the return map refuses it
    F = Foliation2(parse_expr("1 + 0*sqrt(cos(512*pi*u) - 0.5)"), parse_expr("0.3"))
    with pytest.raises(FoliationError, match="not finite"):
        compact_leaves(F)


def test_winding_of_closed_form_foliations():
    for c_text in ("2*sin(2*pi*u)", "1 - cos(2*pi*u)", "0.5*sin(4*pi*u)"):
        a = one_form(UV, ex.neg(parse_expr(c_text)), ex.ONE)
        F = Foliation2.from_form(a)
        assert F.closed_form
        assert winding(F) == (0, 0)


# ---------------------------------------------------------------------------
# leaf integration

def test_leaf_constant_field():
    F = Foliation2(ex.ONE, Const(2.0))
    pts = integrate_leaf(F, (0.0, 0.0), math.sqrt(5.0))
    assert np.allclose(pts[-1], (1.0, 2.0), atol=1e-6)


def test_leaf_vertical_circle_closes():
    F = Foliation2(Const(0.0), ex.ONE)
    pts = integrate_leaf(F, (0.3, 0.0), 1.0)
    assert np.allclose(pts[-1] % 1.0, (0.3, 0.0), atol=1e-6)


def test_leaf_batch_matches_single_starts():
    F = Foliation2(parse_expr("2 + sin(2*pi*v)"), parse_expr("cos(2*pi*u) + 0.3"))
    starts = np.array([(0.1, 0.2), (0.5, 0.5), (0.9, 0.3)])
    batch = integrate_leaf(F, starts, 1.5, max_step=5e-3)
    assert batch.shape == (3, 301, 2)
    for start, pts in zip(starts, batch):
        assert np.max(np.abs(pts - integrate_leaf(F, tuple(start), 1.5, max_step=5e-3))) < 1e-12


@pytest.mark.parametrize("length, max_step", [
    (1.0, 0.0), (1.0, math.nan), (1.0, -1.0), (1.0, math.inf), (0.0, 1e-3), (math.nan, 1e-3),
])
def test_integrate_leaf_refuses_a_bad_length_or_step(length, max_step):
    with pytest.raises(FoliationError, match="must be positive and finite"):
        integrate_leaf(constant_slope(0.4), (0.1, 0.2), length, max_step)


@pytest.mark.parametrize("length, max_step", [
    (1.0, 1e-320), (1.0, 5e-324), (1.0, 1e-300), (1e308, 1e-3), (1e300, 1e-3), (1.0, 1e-9),
])
def test_integrate_leaf_refuses_a_step_count_above_the_cap(monkeypatch, length, max_step):
    # refused before the field is compiled, so before any array is allocated
    def unreachable(*args):
        raise AssertionError("integrate_leaf compiled the field")

    F = constant_slope(0.4)
    monkeypatch.setattr(fol, "compile_kernel", unreachable)
    with pytest.raises(FoliationError, match=f"more than {fol._MAX_LEAF_STEPS} steps"):
        integrate_leaf(F, (0.1, 0.2), length, max_step)


# an isolated pair of leaves v = 0.2 + 0.05 sin 2 pi u + k/2, of period 1
_ISOLATED = ("1", "2*pi*0.05*cos(2*pi*u) + 0.1*sin(2*pi*(v - 0.2 - 0.05*sin(2*pi*u)))")


def _textbook_rk4(rhs, x, y, h, n):
    """Every state of n classical RK4 steps of dy/dx = rhs(x, y), written out
    plainly: the reference that _rk4 must match bit for bit."""
    states = [y]
    for _ in range(n):
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
        states.append(y)
    return np.array(states)


_SLOPE_FIELDS = [
    ("1", "0.4"),  # a constant slope: the kernel returns a Python float
    ("-1", "0.3 + 0.1*cos(2*pi*u)"),  # u alone, crossing the strips backward
    _ISOLATED,  # u and v
    # v alone: straight across the circles v = const, crossed backward, and
    # a slope that uses y across the circles u = const
    ("0.3 + 0.1*cos(2*pi*v)", "-1"),
    # u alone, but a power: numpy's power of a scalar and of an array can
    # differ in the last bit here, so the slope takes _rk4
    ("1", "(1.2 + sin(6*pi*u))^2.3"),
]


@pytest.mark.parametrize("v1, v2", _SLOPE_FIELDS)
def test_rk4_matches_the_textbook_on_return_map_slopes(v1, v2):
    # whichever route _lifts takes, every state has the bits of the textbook
    # RK4, strip after strip, into a full out and into its leading block
    F = Foliation2(parse_expr(v1), parse_expr(v2))
    for axis in ("u", "v"):
        try:
            slope, sign, straight = fol._strip_flow(F, axis)
        except TransversalError:
            continue
        across = "v" if axis == "u" else "u"  # the coordinate the slope may use
        assert straight == (across not in v1 + v2 and "^" not in v1 + v2)
        march = fol._quadrature if straight else fol._rk4
        ts, h = np.arange(33) / 32, sign / fol._STRIP_STEPS
        out = np.empty((fol._STRIP_STEPS + 1, 33))
        last = march(slope, np.float64(0.3), ts, h, fol._STRIP_STEPS, out)
        ref = _textbook_rk4(slope, np.float64(0.3), ts, h, fol._STRIP_STEPS)
        assert out.tobytes() == ref.tobytes() and last.tobytes() == ref[-1].tobytes()

        q, m = 3, 3 * fol._STRIP_STEPS + 1
        strips, y = [], ts
        for k in range(q):  # each strip starts again from its own circle
            strips.append(_textbook_rk4(slope, np.float64(0.3 + sign * k), y, h, fol._STRIP_STEPS))
            y = strips[-1][-1]
        ref = np.concatenate([strips[0]] + [r[1:] for r in strips[1:]])
        full, block = np.empty((m, 33)), np.empty((m, 5))
        lifts = fol._lifts((slope, sign, straight), 0.3, ts, q, full)
        fol._lifts((slope, sign, straight), 0.3, ts, q, block)
        assert lifts.tobytes() == ref[:: fol._STRIP_STEPS][1:].tobytes()
        assert full.tobytes() == ref.tobytes() and block.tobytes() == ref[:, :5].tobytes()


def test_a_straight_strip_flow_is_a_rotation():
    # dy/dx of x alone moves every point of the circle by the same amount,
    # which is why the compact-leaf scan follows only the orbit of t = 0
    checked = []
    for v1, v2 in _SLOPE_FIELDS:
        F = Foliation2(parse_expr(v1), parse_expr(v2))
        for axis in ("u", "v"):
            try:
                straight = fol._strip_flow(F, axis)[2]
            except TransversalError:
                continue
            if straight:
                R = return_map(F, Transversal(axis))
                assert np.ptp(R.lift_values - R.ts) <= 1e-12
                checked.append((v1, v2, axis))
    # the constant slope on both axes, and the slopes of u alone and v alone
    assert [axis for *_, axis in checked] == ["u", "v", "u", "v"]


@pytest.mark.parametrize("field", [_ISOLATED, ("2 + sin(2*pi*v)", "cos(2*pi*u) + 0.3")])
def test_rk4_matches_the_textbook_on_tracks(field):
    # integrate_leaf against the track rhs written plainly: the unit
    # direction of (V1, V2), for a few lengths and steps
    F = Foliation2(*map(parse_expr, field))
    f1, f2 = ex.compile_kernel(F.V1, UV), ex.compile_kernel(F.V2, UV)

    def rhs(_, y):
        d = np.empty_like(y)
        d[0], d[1] = f1(y[0], y[1]), f2(y[0], y[1])
        return d / np.hypot(d[0], d[1])

    starts = np.array([(0.1, 0.2), (0.5, 0.5), (0.9, 0.3)])
    for length, step, n in [(0.5, 1e-2, 50), (1.0, 3e-3, 334), (2.5, 5e-3, 500)]:
        pts = integrate_leaf(F, starts, length, step)
        ref = _textbook_rk4(rhs, 0.0, starts.T, length / n, n)
        assert pts.tobytes() == ref.transpose(2, 0, 1).tobytes()


def _leaf_case(name):
    if name == "eight-band":
        return library.eight_band_pair()[0]
    if name == "isolated":
        return Foliation2(*map(parse_expr, _ISOLATED))
    return constant_slope(0.4)  # the family of (5, 2) leaves


@pytest.mark.parametrize("name", ["eight-band", "isolated"])
def test_render_tracks_match_integrate_leaf_alone(monkeypatch, name):
    F = _leaf_case(name)
    calls = []

    def recorded(*args):
        calls.append((args, integrate_leaf(*args)))
        return calls[-1][1]

    monkeypatch.setattr(render, "integrate_leaf", recorded)
    style = render.RenderStyle()
    svg = render.render_foliation(F, compact_leaves(F), style)
    [((_, starts, length, step), pts)] = calls  # one RK4 pass, seeds only
    assert pts.shape == (16, 126, 2)
    for start, track in zip(starts, pts):
        assert np.array_equal(track, integrate_leaf(F, start, length, step))
    # every state is a vertex: the flow polylines are the folded tracks, up to
    # the 0.01 px rounding of the SVG, with none decimated
    drawn = _drawn_polylines(svg, style, style.flow_color)
    folded = [seg for track in pts for seg in render._wrap_segments(track)]
    assert [len(seg) for seg in drawn] == [len(seg) for seg in folded]
    for seg, ref in zip(drawn, folded):
        assert np.max(np.abs(seg - ref)) <= 0.006 / (style.size - 2 * style.margin)


def _track_cases():
    for name, pair in library.BUILTINS.items():
        for which, F in zip("FG", pair()):
            if F is not None:
                yield pytest.param(F, id=f"{name}-{which}")
    yield pytest.param(Foliation2(*map(parse_expr, _ISOLATED)), id="isolated")


@pytest.mark.parametrize("F", _track_cases())
def test_seed_tracks_are_within_a_twentieth_pixel_of_four_times_finer_steps(monkeypatch, F):
    # RK4's global error is O(h^4): the drawn step moves no vertex of a seed
    # track by more than 0.05 px from the same track in steps four times finer
    calls = []
    monkeypatch.setattr(render, "integrate_leaf", lambda *a: calls.append(a) or integrate_leaf(*a))
    style = render.RenderStyle()
    render.render_foliation(F, [], style)
    [(_, starts, length, step)] = calls
    drawn = integrate_leaf(F, starts, length, step)
    fine = integrate_leaf(F, starts, length, step / 4)
    assert fine.shape == (16, 501, 2)
    d = drawn - fine[:, ::4]
    d -= np.round(d)  # the distance on the torus between unfolded points
    assert np.max(np.hypot(*d.T)) * (style.size - 2 * style.margin) <= 0.05


def _exact_leaf(name, leaf, t):
    """Points of the leaf, in closed form, at the parameters t in [0, 1]."""
    u0, v0 = leaf.point
    if name == "eight-band":  # a circle u = u0
        return np.column_stack([np.full_like(t, u0), v0 + leaf.cls[1] * t])
    if name == "isolated":  # v = 0.2 + 0.05 sin 2 pi u (mod 1/2)
        return np.column_stack([t, v0 + 0.05 * np.sin(2 * np.pi * t)])
    return np.column_stack([5 * t, 2 * t])


def _drawn_polylines(svg, style, color):
    """The vertices of each polyline of one colour in an SVG, in (u, v)."""
    inner = style.size - 2 * style.margin
    found = re.findall(f'<polyline points="([^"]*)" fill="none" stroke="{color}"', svg)
    px = [np.array([p.split(",") for p in pts.split()], dtype=float) for pts in found]
    return [np.column_stack([x - style.margin, inner + style.margin - y]) / inner
            for x, y in (p.T for p in px)]


@pytest.mark.parametrize("name, count", [("eight-band", 12), ("isolated", 2), ("family", 1)])
def test_every_drawn_leaf_closes(name, count):
    F = _leaf_case(name)
    leaves = compact_leaves(F)
    assert len(leaves) == count
    for leaf in leaves:
        path = leaf.path
        assert np.array_equal(path[0], leaf.point)
        assert np.max(np.abs(path[-1] - np.add(leaf.point, leaf.cls))) < 1e-9
        if not leaf.axis:  # an axis circle keeps its other coordinate in every bit
            c = 1 if leaf.cls[0] else 0
            assert path[:, c].tobytes() == np.full(len(path), leaf.point[c]).tobytes()
            for seg in render._wrap_segments(path):
                assert seg[:, c].tobytes() == np.full(len(seg), leaf.point[c]).tobytes()
    # what is drawn covers each leaf with no gap wider than one drawn step: on
    # the torus, every point of a leaf is within half the longest drawn step
    # of a vertex, up to the 0.01 px rounding of the SVG.  The one gap is the
    # step that crosses the frame edge, where the fold cuts every polyline;
    # each leaf starts on the edge, so its seam is such a cut.
    style = render.RenderStyle()
    drawn = _drawn_polylines(render.render_foliation(F, leaves), style, style.leaf_color)
    step = max(np.max(np.hypot(*np.diff(seg, axis=0).T)) for seg in drawn)
    vertices, reach = np.vstack(drawn), step / 2 + 0.01 / (style.size - 2 * style.margin)
    for leaf in leaves:
        for t in np.array_split(np.arange(4097) / 4096, 64):
            pts = _exact_leaf(name, leaf, t)
            # only vertices within reach of the piece's u range can be near it
            du = fol._circle_dist(vertices[:, 0], pts[0, 0])
            near = vertices[du <= reach + np.ptp(pts[:, 0])]
            d = np.abs(pts[:, None] - near) % 1.0
            assert np.max(np.min(np.hypot(*np.minimum(d, 1.0 - d).T), axis=0)) <= reach


@pytest.mark.parametrize("F", [
    pytest.param(Foliation2(*map(parse_expr, _ISOLATED)), id="isolated"),
    pytest.param(Foliation2(parse_expr(
        "2*pi*0.05*cos(2*pi*v) + 0.1*sin(2*pi*(u - 0.2 - 0.05*sin(2*pi*v)))"), ex.ONE),
        id="isolated-across-v"),
    pytest.param(Foliation2(ex.ONE, parse_expr("3/7 + 0.02*sin(2*pi*(7*v - 3*u))")), id="period-7"),
    pytest.param(constant_slope(0.4), id="family-5-2"),
    pytest.param(library.eight_band_pair()[0], id="eight-band"),
])
def test_detector_paths_match_a_fresh_integration(F):
    # each leaf's path is the states its detector integrated: the same bits
    # as integrating the strip flow again from the leaf's point
    leaves = compact_leaves(F)
    assert leaves
    for leaf in leaves:
        if not leaf.axis:  # a circle parallel to an axis, straight
            c = 1 if leaf.cls[0] == 0 else 0
            path = np.tile(leaf.point, (fol._STRIP_STEPS + 1, 1))
            path[:, c] += leaf.cls[c] * (np.arange(fol._STRIP_STEPS + 1) / fol._STRIP_STEPS)
        else:
            x = 0 if leaf.axis == "u" else 1  # the coordinate across the strips
            q = abs(leaf.cls[x])
            m = q * fol._STRIP_STEPS + 1
            flow = fol._strip_flow(F, leaf.axis)
            path = np.empty((m, 2))
            fol._lifts(flow, 0.0, np.array([leaf.point[1 - x]]), q, path[:, 1 - x, None])
            path[:, x] = flow[1] * np.arange(m) / fol._STRIP_STEPS
        assert leaf.path.tobytes() == path.tobytes()


def test_steps_past_a_track_that_leave_the_domain_are_not_refused():
    # V1 is NaN wherever |u - k/256| > 1/1536; the tracks move by about 1e-3
    # of their length in u.  The short one ends inside at u = 6.1e-4, where
    # steps past its end would leave, and the long one stays inside to its end.
    F = Foliation2(parse_expr("1e-3*(1 + 0*sqrt(cos(512*pi*u) - 0.5))"), parse_expr("1"))
    long = integrate_leaf(F, np.array([(0.0, 0.0)]), 0.5, 1e-2)
    short = integrate_leaf(F, np.array([(6e-4, 0.0)]), 0.01, 1e-2)
    assert long.shape == (1, 51, 2) and short.shape == (1, 2, 2)
    with pytest.raises(FoliationError, match="not finite"):
        integrate_leaf(F, (6e-4, 0.0), 0.5, 1e-2)


def _through_compile_field(monkeypatch, fn, *args):
    """fn(*args) with every raw kernel replaced by its compile_field, which
    evaluates every field on the full broadcast grid of its arguments."""
    fol._compact_leaves.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(fol, "compile_kernel", ex.compile_field)
        out = fn(*args)
    fol._compact_leaves.cache_clear()
    return out


@pytest.mark.parametrize(
    "v1, v2",
    [
        pytest.param("1", "0.3", id="constant"),  # every kernel returns a float
        # V2, and the slope V2/V1, are arrays of u alone
        pytest.param("1", "1/3 + 2*pi*0.03*cos(2*pi*u)", id="u-only"),
    ],
)
def test_integrators_on_low_rank_kernels_match_compile_field(monkeypatch, v1, v2):
    F = Foliation2(parse_expr(v1), parse_expr(v2))
    starts = np.array([(0.1, 0.2), (0.5, 0.5), (0.9, 0.3)])
    for start in ((0.1, 0.2), starts):
        pts = integrate_leaf(F, start, 1.5, max_step=5e-3)
        assert pts.shape == np.shape(start)[:-1] + (301, 2)
        assert np.array_equal(pts, _through_compile_field(
            monkeypatch, integrate_leaf, F, start, 1.5, 5e-3))
    for axis in ("u", "v"):
        R = return_map(F, Transversal(axis))
        ref = _through_compile_field(monkeypatch, return_map, F, Transversal(axis))
        assert R.lift_values.shape == (1024,)
        assert np.array_equal(R.lift_values, ref.lift_values)
    assert compact_leaves(F) == _through_compile_field(monkeypatch, compact_leaves, F)


def test_integrators_refuse_non_finite_kernels_without_a_warning():
    # NaN off the validation grid, and a pole at u = 255/512, which no
    # validation point meets but an RK4 stage of the return map does
    nan = Foliation2(parse_expr("1 + 0*sqrt(cos(512*pi*u) - 0.5)"), parse_expr("0.3"))
    pole = Foliation2(ex.ONE, parse_expr("0.3 + 0*(1/(u - 255/512))"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for F in (nan, pole):
            with pytest.raises(FoliationError, match="not finite"):
                return_map(F, Transversal("u"))
        with pytest.raises(FoliationError, match="not finite"):
            integrate_leaf(nan, np.array([(0.1, 0.2), (0.5, 0.5)]), 1.0)


def test_irrational_leaf_never_closes():
    F = constant_slope(-GOLDEN)
    pts = integrate_leaf(F, (0.3, 0.2), 50.0, max_step=2e-3)
    tail = pts[250:]
    frac = (tail - pts[0] + 0.5) % 1.0 - 0.5
    dists = np.hypot(frac[:, 0], frac[:, 1])
    assert dists.min() > 1e-3


# ---------------------------------------------------------------------------
# return maps and rotation numbers

def test_return_map_rigid_rotation():
    rho = 0.25
    R = return_map(constant_slope(rho), Transversal("u", 0.0))
    assert np.allclose(R.lift_values, R.ts + rho, atol=1e-6)
    assert R.degree_check()


def test_return_map_golden_slope():
    s = -GOLDEN
    R = return_map(constant_slope(s), Transversal("u", 0.0))
    assert np.allclose(R.lift_values, R.ts + s, atol=1e-6)
    rho, err = rotation_number(R, 10000)
    assert rho == pytest.approx(s, abs=err + 1e-6)


def test_return_map_reeb_direction_errors():
    with pytest.raises(TransversalError):
        return_map(library.two_reeb_band(), Transversal("u", 0.0))


def test_lift_samples_may_tie_but_not_drop():
    ts = np.arange(8) / 8.0
    lifts = ts.copy()
    lifts[2] = lifts[1]  # a tie
    lifts[3] = lifts[2] - 1e-15  # a rounding-level inversion
    ReturnMap.from_lift_samples(ts, lifts)
    lifts[3] = lifts[2] - 1e-6
    with pytest.raises(FoliationError, match=r"drops by 1\.00e-06 after t = 0\.250000"):
        ReturnMap.from_lift_samples(ts, lifts)


def test_return_map_of_a_contracting_field_whose_lift_ties():
    # the leaves merge to within floating point: about half the samples tie
    F = Foliation2(ex.ONE, parse_expr("5*sin(2*pi*v) + 0.05*cos(2*pi*u)"))
    R = return_map(F, Transversal("u"))
    assert np.count_nonzero(np.diff(R.lift_values) == 0) > 100
    assert R.degree_check()
    assert [l.cls for l in compact_leaves(F)] == [(1, 0), (1, 0)]


def test_compact_leaves_refuse_a_lift_that_drops():
    # the leaves u = k/1000 are far finer than the strip flow's steps, so its
    # lift along v steps down; the scan stops there instead of reporting
    # leaves that are not there
    G = Foliation2(
        parse_expr("-sin(0.5*sin(1000*pi*u))"), parse_expr("cos(0.5*sin(1000*pi*u))")
    )
    with pytest.raises(FoliationError, match=r"lift drops by \S+ after t = "):
        compact_leaves(G)


def test_rotation_number_rigid():
    ts = np.arange(1024) / 1024.0
    R = ReturnMap.from_lift_samples(ts, ts + 0.25)
    rho, err = rotation_number(R, 10000)
    assert err == pytest.approx(1e-4)
    assert rho == pytest.approx(0.25, abs=1e-4)


def test_rotation_number_identity_is_exact_zero():
    ts = np.arange(1024) / 1024.0
    R = ReturnMap.from_lift_samples(ts, ts.copy())
    rho, _ = rotation_number(R, 500)
    assert rho == 0.0


def test_rotation_number_hyperbolic_fixed_point():
    ts = np.arange(2048) / 2048.0
    R = ReturnMap.from_lift_samples(ts, ts + 0.1 * np.sin(2 * np.pi * ts))
    rho, _ = rotation_number(R, 10000)
    assert rho == pytest.approx(0.0, abs=1e-4)


def test_rotation_number_conjugation_invariance():
    ts = np.arange(2048) / 2048.0
    lift = ts + 0.25
    iterations = 2000
    base = 0.25
    conjugators = [
        lambda t: t + 0.10 * np.sin(2 * np.pi * t),
        lambda t: t + 0.05 * np.sin(4 * np.pi * t),
        lambda t: t - 0.08 * np.sin(2 * np.pi * t),
    ]
    fine = np.linspace(-1.0, 2.0, 3 * 8192 + 1)
    for h in conjugators:
        hv = h(fine)
        f_of_h = h(ts) + base
        conj = np.interp(f_of_h, hv, fine)  # h^-1 (f (h(t)))
        R = ReturnMap.from_lift_samples(ts, conj)
        rho, _ = rotation_number(R, iterations)
        assert rho == pytest.approx(base, abs=2.0 / iterations)


@pytest.mark.parametrize("iterations", [0, -5])
def test_rotation_number_refuses_fewer_than_one_iteration(iterations):
    ts = np.arange(1024) / 1024.0
    R = ReturnMap.from_lift_samples(ts, ts + 0.25)
    with pytest.raises(FoliationError, match="at least one iteration"):
        rotation_number(R, iterations)


# ---------------------------------------------------------------------------
# compact leaves

def test_no_compact_leaves_for_irrational_slope():
    assert compact_leaves(constant_slope(-GOLDEN)) == []


@pytest.mark.xfail(strict=True, reason="a semi-stable leaf is a double root of lift(t) - t, "
                   "with no sign change for the scan, and the axis detector sees "
                   "only straight circles")
def test_compact_leaves_find_a_curved_semi_stable_leaf():
    # V is tangent to the curve v = 0.3 + 0.05 sin 2 pi u and approaches it
    # from one side only
    F = Foliation2(ex.ONE, parse_expr(
        "0.1*pi*cos(2*pi*u) + 0.5*(1 - cos(2*pi*(v - 0.3 - 0.05*sin(2*pi*u))))"))
    leaves = compact_leaves(F)
    assert [l.cls for l in leaves] == [(1, 0)]
    assert leaves[0].point == pytest.approx((0.0, 0.3), abs=1e-6)


def test_two_reeb_band_leaves():
    leaves = compact_leaves(library.two_reeb_band())
    assert len(leaves) == 2
    got = sorted((round(l.point[0], 6), l.cls) for l in leaves)
    assert got == [(0.0, (0, 1)), (0.5, (0, -1))]


def test_rational_slope_family():
    leaves = compact_leaves(constant_slope(2.0))
    assert len(leaves) == 1
    assert leaves[0].family
    assert leaves[0].cls == (1, 2)


@pytest.mark.parametrize(
    "p, q", [(p, q) for q in range(1, 9) for p in range(q) if math.gcd(p, q) == 1]
)
def test_periodic_orbits_of_every_period_up_to_8(p, q):
    # the lines q v - p u = 0 and 1/2 (mod 1) are the two closed leaves; the
    # scan must not stop before their period q
    F = Foliation2(ex.ONE, parse_expr(f"{p}/{q} + 0.02*sin(2*pi*({q}*v - {p}*u))"))
    leaves = compact_leaves(F)
    assert [l.cls for l in leaves] == [(q, p), (q, p)]


def _count_strips(monkeypatch):
    # strips integrated by either route: _rk4, or _quadrature for a straight slope;
    # the leaf cache is emptied, so a field an earlier test computed is integrated again
    fol._compact_leaves.cache_clear()
    calls = []
    for name in ("_rk4", "_quadrature"):
        march = getattr(fol, name)
        monkeypatch.setattr(fol, name, lambda *a, march=march: calls.append(1) or march(*a))
    return calls


def test_scan_stops_once_no_period_can_hold_a_leaf(monkeypatch):
    # the first strip puts rho within 1/1024 of 0.618..., where no p/q with
    # q <= 8 lies, so no further strip is integrated
    calls = _count_strips(monkeypatch)
    assert compact_leaves(constant_slope(0.6180339887)) == []
    assert len(calls) == 1


def test_scan_stops_at_the_period_of_a_family(monkeypatch):
    calls = _count_strips(monkeypatch)
    leaves = compact_leaves(constant_slope(0.4))
    assert [(l.cls, l.family) for l in leaves] == [((5, 2), True)]
    assert len(calls) == 5


def _fail(*_, **__):
    raise AssertionError("not called on a rotation")


@pytest.mark.parametrize("v2, leaves, strips", [
    ("0.4", [((5, 2), True)], 5),
    ("0.6180339887", [], 1),
    ("2/5 + 0.1*cos(2*pi*u)", [((5, 2), True)], 5),
])
def test_a_straight_scan_follows_one_orbit(monkeypatch, v2, leaves, strips):
    # each strip integrates the nodes t = 0 and 1 of the circle u = 0, and no
    # bracket is refined: a rotation's periodic points come as a whole family
    shapes, march = [], fol._quadrature
    monkeypatch.setattr(fol, "_quadrature", lambda *a: shapes.append(np.shape(a[2])) or march(*a))
    for name in ("_rk4", "_dips", "_seeds", "_refine"):
        monkeypatch.setattr(fol, name, _fail)
    fol._compact_leaves.cache_clear()
    found = compact_leaves(Foliation2(ex.ONE, parse_expr(v2)))
    assert [(l.cls, l.family) for l in found] == leaves
    assert shapes == [(2,)] * strips


@pytest.mark.parametrize("q", range(1, 10))
def test_constant_rational_slopes_are_one_family_up_to_period_8(q):
    for p in range(-q, 2 * q + 1):
        if math.gcd(p, q) == 1:
            leaves = compact_leaves(constant_slope(p / q))
            assert [(l.cls, l.family) for l in leaves] == ([((q, p), True)] if q <= 8 else []), p


def test_a_rotation_family_keeps_the_textbook_orbit_of_t_0():
    F = Foliation2(ex.ONE, parse_expr("2/5 + 0.1*cos(2*pi*u)"))
    [leaf] = compact_leaves(F)
    assert (leaf.cls, leaf.family, leaf.point) == ((5, 2), True, (0.0, 0.0))
    slope, h = fol._strip_flow(F, "u")[0], 1 / fol._STRIP_STEPS
    strips, y = [], np.zeros(1)
    for k in range(5):  # strip k starts on the circle u = k
        strips.append(_textbook_rk4(slope, np.float64(k), y, h, fol._STRIP_STEPS))
        y = strips[-1][-1]
    ref = np.concatenate([strips[0]] + [r[1:] for r in strips[1:]])[:, 0]
    assert leaf.path[:, 1].tobytes() == ref.tobytes()
    assert leaf.path[:, 0].tobytes() == (np.arange(len(ref)) / fol._STRIP_STEPS).tobytes()


def test_axis_scan_stops_when_no_circle_is_a_candidate(monkeypatch):
    # |V1| = 1 and |V2| = 0.4 stay above 0.05: no circle u = c or v = c can be a leaf
    monkeypatch.setattr(fol, "_refine", _fail)
    monkeypatch.setattr(ex, "diff", _fail)
    F = constant_slope(0.4)
    assert fol._axis_leaves(F, "u") == [] and fol._axis_leaves(F, "v") == []


def _refine_one(fn, x, lo, hi):
    """_refine on one bracket of a closed-form fn; returns the root and the
    points of each call of f, which gets a (brackets, points) batch."""
    seen = []

    def f(pts):
        assert pts.ndim == 2
        seen.append(pts.copy())
        return fn(pts)

    ends = np.array([lo]), np.array([hi])
    root = fol._refine(f, np.array([x]), *ends, fn(ends[0]), fn(ends[1]))
    return float(root[0]), seen


@pytest.mark.parametrize("fn, x, lo, hi, root", [
    pytest.param(lambda x: x * x - 2.0, 1.5, 1.0, 2.0, math.sqrt(2.0), id="simple"),
    pytest.param(lambda x: 0.5 - x, 0.75, 0.5, 1.0, 0.5, id="root-on-an-end"),
    # flat: (x - r)^3 is below 1e-42 within 1e-14 of r
    pytest.param(lambda x: (x - 1 / 3) ** 3, 0.9, 0.0, 1.0, 1 / 3, id="triple-root"),
])
def test_refine_closed_forms(fn, x, lo, hi, root):
    found, seen = _refine_one(fn, x, lo, hi)
    assert abs(found - root) <= 1e-14
    assert 1 <= len(seen) < 100  # it stops within the cap
    assert found in seen[-1]  # a root is a point of f's last call


def test_refine_returns_hi_for_ends_of_one_sign():
    found, seen = _refine_one(lambda x: x * x + 1.0, 0.5, 0.0, 1.0)
    assert (found, seen) == (1.0, [])


def test_refine_keeps_the_states_at_each_root():
    # f's states at x are (x, x^2).  The second bracket ends on its root from
    # the start, so it never joins a pass; its states come from one last call
    calls = []

    def f(pts, c, out):
        calls.append(pts.shape)
        out[0], out[1] = pts, pts * pts
        return pts * pts - c[:, None]

    lo, hi, c = np.array([1.0, 0.0]), np.array([2.0, 0.5]), np.array([2.0, 0.25])
    states = np.full((2, 2), np.nan)
    r = fol._refine(f, np.array([1.5, 0.25]), lo, hi, lo * lo - c, hi * hi - c, c, states=states)
    assert abs(r[0] - math.sqrt(2.0)) <= 1e-14 and r[1] == 0.5
    assert states.tobytes() == np.array([r, r * r]).tobytes()
    assert [rows for rows, _ in calls[:-1]] == [1] * (len(calls) - 1)  # only the live bracket
    assert calls[-1] == (1, 1)  # the root never refined, alone


# the isolated family with leaves v = 0.1 + j/4 + eps sin 2 pi u, off the
# points of the 1/1024 scan
_ISOLATED_M2 = "2*pi*0.0327*cos(2*pi*u) + 0.2*sin(4*pi*(v - 0.1 - 0.0327*sin(2*pi*u)))"


def test_isolated_leaves_are_refined_in_two_passes(monkeypatch):
    batches = []
    lifts = fol._lifts
    monkeypatch.setattr(
        fol, "_lifts", lambda flow, x0, ts, *a: batches.append(np.ndim(ts)) or lifts(flow, x0, ts, *a)
    )
    leaves = compact_leaves(Foliation2(ex.ONE, parse_expr(_ISOLATED_M2)))
    assert batches.count(2) <= 2  # refinement passes: _refine's f gets 2-D batches
    assert [(l.cls, l.axis) for l in leaves] == [((1, 0), "u")] * 4
    # 1.2e-12 off: the error of 256 RK4 steps a strip, not of the root finder
    assert [l.point[1] for l in leaves] == pytest.approx(0.1 + np.arange(4) / 4, abs=2e-12)


def test_period_7_orbits_are_refined_in_wide_passes(monkeypatch):
    # 7 scan strips and 6 refinement passes of 7 strips; the orbit points are
    # read from the refinement's states, not integrated again
    shapes = []
    rk4 = fol._rk4
    monkeypatch.setattr(fol, "_rk4", lambda *a: shapes.append(np.shape(a[2])) or rk4(*a))
    leaves = compact_leaves(Foliation2(ex.ONE, parse_expr("3/7 + 0.02*sin(2*pi*(7*v - 3*u))")))
    assert [l.cls for l in leaves] == [(7, 3), (7, 3)]
    assert len(shapes) == 49
    # a settled bracket leaves the batch: the rows of each refinement pass
    assert [rows for rows, _ in shapes[7::7]] == [14, 13, 6, 6, 2, 1]


def test_leaf_class_matches_displacement():
    F = Foliation2(parse_expr("sin(2*pi*u)"), parse_expr("cos(2*pi*u)"))
    for leaf in compact_leaves(F):
        pts = integrate_leaf(F, leaf.point, 1.0 + 1e-3)
        disp = pts - np.array(leaf.point)
        target = np.array(leaf.cls, dtype=float)
        gap = np.min(np.hypot(*(disp - target).T))
        assert gap < 1e-5


# ---------------------------------------------------------------------------
# Reeb annuli

def test_two_reeb_band_annuli():
    annuli = reeb_annuli(library.two_reeb_band())
    assert len(annuli) == 2
    bands = sorted(tuple(round(b, 6) for b in a.band) for a in annuli)
    assert bands == [(0.0, 0.5), (0.5, 1.0)]


def test_constant_foliation_has_no_annuli():
    assert reeb_annuli(constant_slope(0.3)) == []


def test_same_orientation_leaves_make_no_annuli():
    # suspension of a circle map with two half-stable fixed points: both
    # compact leaves carry class (0, 1), so no band is a Reeb band
    F = Foliation2(parse_expr("1 - cos(4*pi*u)"), ex.ONE)
    leaves = compact_leaves(F)
    assert sorted(l.cls for l in leaves) == [(0, 1), (0, 1)]
    assert reeb_annuli(F, leaves) == []


def test_axis_leaf_found_by_both_detectors_is_reported_once():
    # the return map is steep (about e^5.4) at the two repelling leaves; the
    # roots of lift(t) - t, refined on the integrated flow, still lie within
    # 1e-9 of the axis leaves, so each of the four is reported once
    F = Foliation2(parse_expr("sin(2*pi*u)^2 - 0.25"), ex.ONE)
    leaves = compact_leaves(F)
    assert sorted(l.point[0] for l in leaves) == pytest.approx(
        [1 / 12, 5 / 12, 7 / 12, 11 / 12], abs=1e-9
    )
    assert all(l.cls == (0, 1) for l in leaves)


def _reference_fixed_points(slope, guesses):
    """Fixed points of the return map of du/dv = slope(v, u) on the circle
    v = 0, one within 1e-5 of each guess: lift(u) - u on a grid of step 1e-7
    by a 2048-step RK4, and the root by linear interpolation in its cell."""
    u0 = np.add.outer(guesses, np.linspace(-1e-5, 1e-5, 201))
    u, h = u0.copy(), 1.0 / 2048
    for i in range(2048):
        v = i * h
        k1 = slope(v, u)
        k2 = slope(v + h / 2, u + h / 2 * k1)
        k3 = slope(v + h / 2, u + h / 2 * k2)
        k4 = slope(v + h, u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    d = u - u0
    out = []
    for row, drow in zip(u0, d):
        (k,) = np.flatnonzero(np.sign(drow[:-1]) != np.sign(drow[1:]))
        out.append(row[k] - drow[k] * (row[k + 1] - row[k]) / (drow[k + 1] - drow[k]))
    return out


@pytest.mark.parametrize("cells", [0.6, 0.9])
def test_separate_leaf_next_to_an_axis_leaf_is_kept(cells):
    # u = 0.3 and 0.8 are axis-parallel leaves; beside each, less than one
    # cell of the return map's 1/1024 root scan away, lies a leaf that is not
    # axis-parallel, in the same class.  At 0.6 cells both leaves lie in one
    # scan cell, where lift(t) - t keeps its sign at both ends.  The separate
    # leaves lie about 2e-6 from b and b + 1/2, not on them.
    b = 0.3 + cells / 1024
    F = Foliation2(
        parse_expr(f"sin(2*pi*(u - 0.3))*(sin(2*pi*(u - {b})) + 0.1*cos(2*pi*v))"),
        ex.ONE,
    )

    def slope(v, u):
        tau = 2 * np.pi
        return np.sin(tau * (u - 0.3)) * (np.sin(tau * (u - b)) + 0.1 * np.cos(tau * v))

    leaves = sorted(compact_leaves(F), key=lambda l: l.point[0])
    assert [l.point[0] for l in leaves] == pytest.approx([0.3, b, 0.8, b + 0.5], abs=1e-5)
    assert [l.point[0] for l in leaves[::2]] == pytest.approx([0.3, 0.8], abs=1e-9)
    assert [l.point[0] for l in leaves[1::2]] == pytest.approx(
        _reference_fixed_points(slope, [b, b + 0.5]), abs=1e-9
    )
    assert all(l.cls == (0, 1) for l in leaves)


@pytest.mark.parametrize("eps, b", [(0.0446, 0.1209), (0.0154, 0.0825)])
def test_exact_zero_of_the_return_map_is_a_leaf(eps, b):
    # four closed leaves v = j/4 + eps sin(2 pi u); on these inputs
    # lift(t) - t is exactly 0 at one scan point
    F = Foliation2(
        ex.ONE,
        parse_expr(f"2*pi*{eps}*cos(2*pi*u) + {b}*sin(4*pi*(v - {eps}*sin(2*pi*u)))"),
    )
    leaves = compact_leaves(F)
    assert sorted(l.point[1] for l in leaves) == pytest.approx([0.0, 0.25, 0.5, 0.75], abs=1e-6)
    assert all(l.cls == (1, 0) for l in leaves)


def test_eight_band_model():
    F, G = library.eight_band_pair()
    assert winding(F) == (0, 0)
    leaves = compact_leaves(F)
    ups = [l for l in leaves if l.cls == (0, 1)]
    downs = [l for l in leaves if l.cls == (0, -1)]
    assert (len(ups), len(downs)) == (4, 8)
    assert len(reeb_annuli(F, leaves)) == 8
    verdict = parallel_compact_leaves(F, G)
    assert verdict.parallel


# ---------------------------------------------------------------------------
# parallel leaves and cone separation

def test_parallel_leaves_distinct_axes():
    F = constant_slope(0.0)
    G = Foliation2(Const(0.0), ex.ONE)
    v = parallel_compact_leaves(F, G)
    assert v.verdict == "not_parallel"


def test_parallel_leaves_up_to_sign():
    F = Foliation2(parse_expr("sin(2*pi*u)"), parse_expr("cos(2*pi*u)"))
    G = Foliation2(Const(0.0), ex.ONE)
    v = parallel_compact_leaves(F, G)
    assert v.verdict == "parallel"
    assert len(v.witnesses) == 2


def test_parallel_leaves_vacuous_for_irrational_pair():
    v = parallel_compact_leaves(constant_slope(0.618), constant_slope(-1.618))
    assert v.verdict == "not_parallel"
    assert v.witnesses == ()


def test_cone_separation_golden_pair():
    pair = cone_separation(
        constant_slope((math.sqrt(5) - 1) / 2), constant_slope(-GOLDEN)
    )
    assert pair == ((1, 0), (0, 1))


def _near_tangency_pair():
    # the two fields sweep almost every direction, leaving only narrow gaps
    # around slopes +-3/13; no denominator <= 10 candidate fits in a gap
    g1 = math.atan(3.0 / 13.0)
    gap = 0.0065
    w1 = math.pi / 2.0 - g1 - gap
    w2 = g1 - gap
    thF = f"pi/2 + {w1}*sin(2*pi*u)"
    thG = f"pi + {w2}*sin(2*pi*u)"
    F = Foliation2(parse_expr(f"cos({thF})"), parse_expr(f"sin({thF})"))
    G = Foliation2(parse_expr(f"cos({thG})"), parse_expr(f"sin({thG})"))
    return F, G


def test_cone_separation_needs_fine_slopes():
    F, G = _near_tangency_pair()
    assert cone_separation(F, G, SlopeSearch(max_denominator=10)) is None
    found = cone_separation(F, G, SlopeSearch(max_denominator=50))
    assert found == ((13, -3), (13, 3))


def test_cone_separation_fails_with_parallel_leaves():
    F, G = library.franks_williams_pair()
    for bound in (10, 50):
        assert cone_separation(F, G, SlopeSearch(max_denominator=bound)) is None


def _quarter_turn_pair(angle):
    """F at the given angle and G a quarter turn ahead of it."""
    F = Foliation2(parse_expr(f"cos({angle})"), parse_expr(f"sin({angle})"))
    G = Foliation2(parse_expr(f"-sin({angle})"), parse_expr(f"cos({angle})"))
    return F, G


@pytest.mark.parametrize(
    "angle",
    [
        # the sampled angles of this Reeb band leave gaps wider than the
        # clearance, but its line directions fill the whole circle
        pytest.param("pi/2 + 1.16283*pi*sin(4*pi*u)", id="every-direction"),
        # neighbouring grid samples turn by more than pi/4, so the grid cannot
        # tell the arc of directions; the second field's samples span only
        # [-0.5, 0.5], and only the resolution guard refuses it
        pytest.param("300*sin(2*pi*u)", id="unresolved"),
        pytest.param("0.5*sin(1000*pi*u)", id="unresolved-narrow-samples"),
    ],
)
def test_cone_separation_none(angle):
    F, G = _quarter_turn_pair(angle)
    assert cone_separation(F, G) is None



@pytest.mark.parametrize(
    "angle, uses, expected",
    [
        pytest.param("0.4", "", ((1, 0), (0, 1)), id="constant"),
        pytest.param("0.4 + 0.3*sin(2*pi*u)", "u", ((1, 0), (0, 1)), id="u-only"),
        pytest.param("1 + 0.2*cos(2*pi*v)", "v", ((1, 0), (0, 1)), id="v-only"),
        pytest.param("0.3*sin(2*pi*(u + 2*v))", "uv", ((1, -3), (1, -2)), id="two-variable"),
        pytest.param("2*pi*u", "u", None, id="u-winding"),
        pytest.param("300*sin(2*pi*u)", "u", None, id="unresolved"),
        # FOUND, left open: every grid point sits on a zero of the sine, so
        # the samples miss that this field takes every direction
        pytest.param("1.7*sin(2048*pi*u)", "u", ((1, -10), (1, -9)), id="aliased"),
    ],
)
def test_cone_separation_on_the_open_grid_matches_the_full_grid(
        monkeypatch, angle, uses, expected):
    F, G = _quarter_turn_pair(angle)
    t = np.arange(1024) / 1024
    shapes = []  # of each kernel's values, V2's then V1's for each block
    kernel = fol.compile_kernel

    def recorded(e, names):
        fn = kernel(e, names)
        return lambda *a: shapes.append(np.shape(out := fn(*a))) or out

    monkeypatch.setattr(fol, "compile_kernel", recorded)
    arcs = [fol._direction_arc(H, t) for H in (F, G)]
    # an axis the field does not use has length 1 in every evaluated block
    blocks = [(1, 1, *np.broadcast_shapes(a, b))[-2:] for a, b in zip(shapes[::2], shapes[1::2])]
    assert blocks and all(
        (rows > 1, cols > 1) == ("u" in uses, "v" in uses) for rows, cols in blocks
    )
    monkeypatch.setattr(fol, "compile_kernel", kernel)
    assert cone_separation(F, G) == expected
    with monkeypatch.context() as m:  # every field on the full 1024 x 1024 grid
        m.setattr(fol, "compile_kernel", ex.compile_field)
        assert arcs == [fol._direction_arc(H, t) for H in (F, G)]
        assert cone_separation(F, G) == expected


def _one_steep_step(u0, nan_at=None):
    """F along (1 - r cos 2 pi (u - u0), -r sin 2 pi (u - u0)), r = 0.997,
    and G a quarter turn ahead.  The direction turns by 1.59 rad between the
    two grid rows on either side of u0 (halfway between them), and by at
    most pi/6 between any other neighbouring rows.  With nan_at, F is NaN on the
    grid row at nan_at alone (off every validation grid)."""
    phi = f"2*pi*(u - {u0!r})"
    nan = "" if nan_at is None else f" + 0*sqrt(cos(2*pi*0.0002) - cos(2*pi*(u - {nan_at!r})))"
    F = Foliation2(parse_expr(f"1 - 0.997*cos({phi}){nan}"), parse_expr(f"-0.997*sin({phi})"))
    return F, Foliation2(ex.neg(F.V2), F.V1)


@pytest.mark.parametrize("u0", [
    pytest.param(63.5 / 1024, id="block-seam"),  # rows 63 and 64: blocks 0 and 1
    pytest.param(1023.5 / 1024, id="wrap"),  # the last row and row 0
])
def test_direction_arc_sees_a_steep_step_between_blocks(monkeypatch, u0):
    F, G = _one_steep_step(u0)
    t = np.arange(1024) / 1024
    assert fol._direction_arc(F, t) is None
    assert cone_separation(F, G) is None
    monkeypatch.setattr(fol, "compile_kernel", ex.compile_field)  # the full grid agrees
    assert fol._direction_arc(F, t) is None


def _plain_arc(H, t):
    """[lo, hi] of H's lifted angle on the full grid, written plainly: take
    the whole turns off every step along the rows and down the first column,
    both around the torus, or None if a step still turns by more than pi/4."""
    f1, f2 = ex.compile_field(H.V1, UV), ex.compile_field(H.V2, UV)
    angle = np.arctan2(f2(t[:, None], t), f1(t[:, None], t))
    turn = 2.0 * math.pi
    steps = [np.diff(angle, axis=a, append=np.take(angle, [0], axis=a)) for a in (0, 1)]
    ku, kv = (np.rint(d / turn) for d in steps)
    if max(np.max(np.abs(d - turn * k)) for d, k in zip(steps, (ku, kv))) > math.pi / 4:
        return None
    lift = angle.copy()
    lift[:, 1:] -= turn * np.cumsum(kv[:, :-1], axis=1)
    lift -= turn * np.concatenate([[0.0], np.cumsum(ku[:-1, 0])])[:, None]
    return float(lift.min()), float(lift.max())


def _arc_cases():
    yield pytest.param(Foliation2(*map(parse_expr, _ISOLATED)), id="isolated")
    yield pytest.param(Foliation2(ex.ONE, parse_expr(_ISOLATED_M2)), id="isolated-m2")
    for which, H in zip("FG", library.eight_band_pair()):
        yield pytest.param(H, id=f"eight-band-{which}")
    for u0, name in ((63.5 / 1024, "block-seam"), (1023.5 / 1024, "wrap")):
        for which, H in zip("FG", _one_steep_step(u0)):
            yield pytest.param(H, id=f"steep-{name}-{which}")
    # the raw angle crosses pi near rows 164 and 860 (blocks 2 and 13), and
    # a0 is near -2.9: every sample is taken within half a turn of a0, so the
    # raw angles near pi in the blocks between read near -pi
    yield pytest.param(
        _quarter_turn_pair("2.9 + 0.5*cos(2*pi*u) + 0.1*sin(2*pi*v)")[0], id="carried-turns"
    )


@pytest.mark.parametrize("H", _arc_cases())
def test_direction_arc_matches_a_plain_full_grid_lift(H):
    # the same arc where the plain lift stays within half a turn of its value
    # at (0, 0); a field that strays further (eight-band F and G span 2.4 pi)
    # has an arc of at least pi, and gets None
    t = np.arange(1024) / 1024
    plain = _plain_arc(H, t)
    f1, f2 = ex.compile_field(H.V1, UV), ex.compile_field(H.V2, UV)
    a0 = float(np.arctan2(f2(0.0, 0.0), f1(0.0, 0.0)))
    if plain is not None and a0 - math.pi < plain[0] and plain[1] < a0 + math.pi:
        assert fol._direction_arc(H, t) == plain
    else:
        assert fol._direction_arc(H, t) is None


def test_candidate_directions_are_the_reduced_slopes_by_denominator():
    for n in range(1, 31):
        dirs, seen = [(1, 0), (0, 1)], {Fraction(0)}
        for q in range(1, n + 1):
            for p in range(-n, n + 1):
                if (s := Fraction(p, q)) not in seen and s.denominator == q:
                    seen.add(s)
                    dirs.append((q, p))
        assert fol._candidate_directions(n) == tuple(dirs)


def test_carried_turns_move_blocks_without_wraps_of_their_own():
    # each sample is taken within half a turn of a0 (near -2.9), so a block
    # with no wrap of its own but raw angles near pi reads near -pi
    H = _quarter_turn_pair("2.9 + 0.5*cos(2*pi*u) + 0.1*sin(2*pi*v)")[0]
    lo, hi = fol._direction_arc(H, np.arange(1024) / 1024)
    assert lo == pytest.approx(2.3 - 2 * math.pi, abs=1e-4)
    assert hi == pytest.approx(3.5 - 2 * math.pi, abs=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cone_separation_refuses_a_late_nan_after_an_unresolved_block():
    # block 0 already fails the pi/4 test; the NaN is on row 1001, in the last block
    F, G = _one_steep_step(63.5 / 1024, nan_at=1001 / 1024)
    with pytest.raises(FoliationError, match="not finite"):
        cone_separation(F, G)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cone_separation_refuses_a_field_not_finite_on_its_grid():
    # finite on the validation grids, NaN at u = 1/1024 on the cone grid
    F = Foliation2(parse_expr("1 + 0*sqrt(cos(4608*pi*u) - 0.5)"), parse_expr("0.3"))
    G = Foliation2(parse_expr("-0.3"), parse_expr("1"))
    with pytest.raises(FoliationError, match="not finite"):
        cone_separation(F, G)


def test_direction_arc_of_a_field_with_one_variable_per_component(monkeypatch):
    F = Foliation2(parse_expr("2 + sin(2*pi*u)"), parse_expr("0.5*cos(2*pi*v)"))
    t = np.arange(1024) / 1024
    arc = fol._direction_arc(F, t)
    monkeypatch.setattr(fol, "compile_kernel", ex.compile_field)
    assert arc == fol._direction_arc(F, t)
    assert arc[0] == -arc[1] == pytest.approx(-math.atan(0.5))


def _variables(e):
    if isinstance(e, ex.Var):
        return {e.name}
    args = (getattr(e, k, None) for k in ("left", "right", "arg"))
    return set().union(*(_variables(a) for a in args if a is not None))


@pytest.mark.parametrize("H", _arc_cases())
def test_enclosed_arc_is_the_sampled_arc_or_nothing(H):
    # a field of one variable is left to the sampler; a field of both gets
    # the sampled arc bit for bit, or None where the enclosure proves nothing
    t = np.arange(1024) / 1024
    arc = fol._enclosed_arc(H, t)
    if not {"u", "v"} <= _variables(H.V1) | _variables(H.V2):
        assert arc is None
    elif arc is not None:
        assert arc == fol._direction_arc(H, t)


@pytest.mark.parametrize("eps, b, v0", [
    (0.0327, 0.2, 0.1), (0.02, 0.15, 1.5 / 1024), (0.05, 0.3, 255.5 / 1024), (0.045, 0.28, 0.7),
])
def test_enclosed_arc_proves_the_isolated_leaf_arcs(eps, b, v0):
    H = Foliation2(ex.ONE, parse_expr(
        f"2*pi*{eps}*cos(2*pi*u) + {b}*sin(4*pi*(v - {v0!r} - {eps}*sin(2*pi*u)))"))
    t = np.arange(1024) / 1024
    arc = fol._enclosed_arc(H, t)
    assert arc is not None and arc == fol._direction_arc(H, t)


def _sheared_eight_band():
    A = "pi/2 + 1.2*pi*sin(4*pi*(u - v))"
    return (Foliation2(parse_expr(f"cos({A}) + sin({A})"), parse_expr(f"sin({A})")),
            Foliation2(parse_expr(f"-sin({A}) + cos({A})"), parse_expr(f"cos({A})")))


def test_cone_separation_samples_where_the_enclosure_proves_nothing(monkeypatch):
    t = np.arange(1024) / 1024
    # the enclosure of V1 reaches 0 only through the dependency problem: its
    # two products are enclosed apart, though they cancel
    dep = "9*sin(2*pi*u)*cos(2*pi*v)"
    F = Foliation2(parse_expr(f"1 + {dep} - {dep}"), parse_expr("0.3*sin(2*pi*(u + v))"))
    G = Foliation2(ex.neg(F.V2), F.V1)
    sheared = _sheared_eight_band()
    for H in (F, G) + sheared:
        assert fol._enclosed_arc(H, t) is None
    found = cone_separation(F, G)
    assert cone_separation(*sheared) is None
    monkeypatch.setattr(fol, "_enclosed_arc", lambda H, t: None)  # the sampler alone
    assert cone_separation(F, G) == found
    assert cone_separation(*sheared) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cone_separation_refuses_a_two_variable_field_not_finite_on_its_grid():
    # finite on the validation grids, NaN at u = 1/1024 on the cone grid; its
    # enclosure is unbounded, so the sampler runs and refuses it
    F = Foliation2(parse_expr("1 + 0*sqrt(cos(4608*pi*u) - 0.5)"),
                   parse_expr("0.3 + 0.1*sin(2*pi*v)"))
    G = Foliation2(parse_expr("-0.3"), parse_expr("1"))
    assert fol._enclosed_arc(F, np.arange(1024) / 1024) is None
    with pytest.raises(FoliationError, match="not finite"):
        cone_separation(F, G)


def test_cone_separation_samples_a_few_boxes_of_an_isolated_leaf_field(monkeypatch):
    F = Foliation2(ex.ONE, parse_expr(_ISOLATED_M2))
    G = Foliation2(ex.ONE, parse_expr("0.6180339887 + 2*pi*0.0327*cos(2*pi*u)"))
    fol._check_transverse_pair(F, G)  # cached: its own grid is not the arcs'
    shapes = []  # of each kernel's values
    kernel = fol.compile_kernel

    def recorded(e, names):
        fn = kernel(e, names)
        return lambda *a: shapes.append(np.shape(out := fn(*a))) or out

    monkeypatch.setattr(fol, "compile_kernel", recorded)
    found = cone_separation(F, G)
    assert sum(math.prod(s) for s in shapes) <= 0.05 * 1024**2
    monkeypatch.setattr(fol, "compile_kernel", kernel)
    monkeypatch.setattr(fol, "_enclosed_arc", lambda H, t: None)
    assert found is not None and cone_separation(F, G) == found
