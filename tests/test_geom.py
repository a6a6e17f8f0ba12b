import math
import random

import numpy as np
import pytest

from allab import expr as ex
from allab import geom
from allab.anosov import suspension_model
from allab.expr import Const, Var, parse_expr
from allab.geom import (
    DifferentialForm,
    Gluing3,
    TorusEmbedding,
    XYZ,
    UV,
    check_periodicity,
    exterior_derivative,
    fiber_embedding,
    interior_product,
    lie_derivative,
    one_form,
    pullback,
    restrict,
    torus3,
    torus_samples,
    volume_form,
    wedge,
)


def alpha_pm():
    """The explicit pair (+e^z dx + e^-z dy, -e^z dx + e^-z dy)."""
    ez = parse_expr("exp(z)")
    emz = parse_expr("exp(-z)")
    plus = one_form(XYZ, ez, emz, ex.ZERO)
    minus = one_form(XYZ, ex.neg(ez), emz, ex.ZERO)
    return plus, minus


def _rand_pts(rng, n=50):
    return [
        {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1), "z": rng.uniform(-1, 1)}
        for _ in range(n)
    ]


def _form_residual(f, pts):
    return max(
        (abs(v) for p in pts for v in f.evaluate(p).values()),
        default=0.0,
    )


def test_exterior_derivative_single_term():
    w = one_form(XYZ, parse_expr("exp(z)"), ex.ZERO, ex.ZERO)
    dw = exterior_derivative(w)
    # d(e^z dx) = e^z dz^dx = -e^z dx^dz
    assert set(dw.coeffs) == {(0, 2)}
    for z in (-1.0, 0.0, 0.7):
        assert dw.evaluate({"x": 0, "y": 0, "z": z})[(0, 2)] == pytest.approx(
            -math.exp(z), rel=1e-14
        )


def test_wedge_of_pair_is_constant_and_closed():
    plus, minus = alpha_pm()
    w = wedge(minus, plus)
    # alpha_- ^ alpha_+ = -2 dx^dy
    pts = _rand_pts(random.Random(3), 20)
    for p in pts:
        vals = w.evaluate(p)
        assert vals.get((0, 1), 0.0) == pytest.approx(-2.0, rel=1e-12)
    dw = exterior_derivative(w)
    assert _form_residual(dw, pts) < 1e-12


def test_contact_volumes_of_pair():
    plus, minus = alpha_pm()
    wp = wedge(plus, exterior_derivative(plus))
    wm = wedge(minus, exterior_derivative(minus))
    pts = _rand_pts(random.Random(5), 20)
    for p in pts:
        assert wp.evaluate(p)[(0, 1, 2)] == pytest.approx(2.0, rel=1e-12)
        assert wm.evaluate(p)[(0, 1, 2)] == pytest.approx(-2.0, rel=1e-12)


def test_wedge_antisymmetry_of_covector():
    dx = one_form(XYZ, ex.ONE, ex.ZERO, ex.ZERO)
    assert wedge(dx, dx).is_zero()


def test_wedge_graded_antisymmetry():
    rng = random.Random(9)
    a = one_form(XYZ, parse_expr("x*y"), parse_expr("sin(z)"), parse_expr("exp(x/3)"))
    b = one_form(XYZ, parse_expr("cos(y)"), parse_expr("x + z"), parse_expr("y*y"))
    ab = wedge(a, b)
    ba = wedge(b, a)
    pts = _rand_pts(rng, 30)
    for p in pts:
        va, vb = ab.evaluate(p), ba.evaluate(p)
        for idx in va:
            assert va[idx] == pytest.approx(-vb.get(idx, 0.0), rel=1e-12, abs=1e-12)


def test_d_squared_is_zero():
    rng = random.Random(23)
    f = parse_expr("exp(x/2)*sin(y) + z*z")
    g = parse_expr("cos(x + y) + y*z")
    w = one_form(XYZ, f, g, ex.ZERO)
    ddw = exterior_derivative(exterior_derivative(w))
    assert _form_residual(ddw, _rand_pts(rng, 50)) < 1e-10


def test_degree_overflow():
    with pytest.raises(geom.DegreeError):
        exterior_derivative(volume_form())
    dx = one_form(XYZ, ex.ONE, ex.ZERO, ex.ZERO)
    with pytest.raises(geom.DegreeError):
        wedge(volume_form(), dx)


def test_lie_derivative_eigenform_identities():
    dz_field = (ex.ZERO, ex.ZERO, ex.ONE)
    au = one_form(XYZ, parse_expr("exp(z)"), ex.ZERO, ex.ZERO)
    asf = one_form(XYZ, ex.ZERO, parse_expr("exp(-z)"), ex.ZERO)
    pts = _rand_pts(random.Random(2), 25)
    lu = lie_derivative(dz_field, au)
    ls = lie_derivative(dz_field, asf)
    for p in pts:
        # L_dz (e^z dx) = +1 * e^z dx,  L_dz (e^-z dy) = -1 * e^-z dy
        assert lu.evaluate(p).get((0,), 0.0) == pytest.approx(math.exp(p["z"]), rel=1e-12)
        assert ls.evaluate(p).get((1,), 0.0) == pytest.approx(-math.exp(-p["z"]), rel=1e-12)


def test_lie_derivative_constant_case():
    X = (Const(1.0), Const(2.0), Const(-1.0))
    a = one_form(XYZ, Const(3.0), Const(-1.0), Const(0.5))
    assert lie_derivative(X, a).is_zero()


def test_cartan_matches_flow_difference_quotient():
    # constant X: pullback along phi_h is coefficient translation
    X = (Const(0.5), Const(-0.25), Const(1.0))
    a = one_form(
        XYZ, parse_expr("sin(x + 2*y)"), parse_expr("exp(z/2)"), parse_expr("x*y")
    )
    la = lie_derivative(X, a)
    h = 1e-4
    rng = random.Random(31)
    for p in _rand_pts(rng, 10):
        shifted = {
            "x": p["x"] + 0.5 * h,
            "y": p["y"] - 0.25 * h,
            "z": p["z"] + 1.0 * h,
        }
        for idx in ((0,), (1,), (2,)):
            fd = (
                a.evaluate(shifted).get(idx, 0.0) - a.evaluate(p).get(idx, 0.0)
            ) / h
            assert la.evaluate(p).get(idx, 0.0) == pytest.approx(fd, abs=1e-3)


def test_interior_product_two_form():
    X = (Const(1.0), Const(0.0), Const(0.0))
    dxdy = DifferentialForm(XYZ, 2, {(0, 1): ex.ONE})
    res = interior_product(X, dxdy)
    assert res.coeffs == {(1,): ex.ONE}


# ---------------------------------------------------------------------------
# restriction

def _unit_fiber(z=0.0):
    return fiber_embedding(torus3(), z=z)


def test_restrict_dz_to_fiber_vanishes():
    dz = one_form(XYZ, ex.ZERO, ex.ZERO, ex.ONE)
    assert restrict(dz, _unit_fiber(0.3)).is_zero()


def test_restrict_area_form_unimodular():
    dxdy = DifferentialForm(XYZ, 2, {(0, 1): ex.ONE})
    r = restrict(dxdy, _unit_fiber())
    assert r.evaluate({"u": 0.2, "v": 0.7})[(0, 1)] == pytest.approx(1.0)


def test_restrict_pair_sum_is_closed_constant():
    plus, minus = alpha_pm()
    c = 0.4
    r = restrict(plus + minus, _unit_fiber(z=c))
    vals = r.evaluate({"u": 0.1, "v": 0.9})
    # the sum is 2 e^-z dy; on the unit lattice this pulls back to 2 e^-c dv
    assert vals.get((0,), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert vals.get((1,), 0.0) == pytest.approx(2 * math.exp(-c), rel=1e-12)
    assert restrict(exterior_derivative(plus + minus), _unit_fiber(z=c)).is_zero()


def test_grid_point_matches_the_broadcast_grid():
    n = 7
    rng = np.random.default_rng(20)
    grid = (np.array(rng.random()), rng.random(n), rng.random((n, 1)), rng.random((n, n, 1)))
    shape = (n, n, n)
    flat = [0, n**3 - 1, *rng.integers(0, n**3, 20)]
    for k in flat:
        i = np.unravel_index(k, shape)
        ref = tuple(float(np.broadcast_to(c, shape)[i]) for c in grid)
        assert geom.grid_point(grid, int(k)) == ref


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_torus_embedding_refuses_a_direction_that_is_not_finite(bad):
    # numpy's matrix_rank raises LinAlgError on NaN; finiteness is checked first
    with pytest.raises(geom.GeomError, match="embedding is not finite"):
        TorusEmbedding(base=(0.0, 0.0, 0.0), e1=(1.0, bad, 0.0), e2=(0.0, 1.0, 0.0))


def test_restrict_commutes_with_d():
    sigma = TorusEmbedding(
        base=(0.1, -0.2, 0.5),
        e1=(1.0, 0.25, 0.0),
        e2=(-0.25, 1.0, 0.0),
    )
    a = one_form(
        XYZ, parse_expr("sin(x)*y"), parse_expr("exp(z)*x"), parse_expr("cos(y)")
    )
    lhs = exterior_derivative(restrict(a, sigma))
    rhs = restrict(exterior_derivative(a), sigma)
    rng = random.Random(17)
    for _ in range(40):
        p = {"u": rng.random(), "v": rng.random()}
        d = lhs - rhs
        assert all(abs(t) < 1e-10 for t in d.evaluate(p).values())


# ---------------------------------------------------------------------------
# pullback

# the graph torus z = phi(u, v) over the unit square
_PHI = parse_expr("0.1*sin(2*pi*u)*cos(2*pi*v)")
_GRAPH = {"x": ex.var("u"), "y": ex.var("v"), "z": _PHI}
_G = DifferentialForm(XYZ, 0, {(): parse_expr("x*exp(y)*sin(z)")})
_A = one_form(XYZ, parse_expr("sin(x)*exp(z)"), parse_expr("x*y + cos(z)"), parse_expr("y*z"))
_B = one_form(XYZ, parse_expr("exp(x - y)"), parse_expr("z"), parse_expr("cos(x*z)"))


def _chart(name):
    if name == "graph":
        return _GRAPH
    return suspension_model(((2, 1), (1, 1))).fiber(0.2).chart()


def _assert_agree_on_torus(a, b):
    """a and b agree coefficient-wise on the 64 x 64 torus grid."""
    assert a.coords == b.coords == UV and a.degree == b.degree
    for idx in a.coeffs.keys() | b.coeffs.keys():
        gap = torus_samples(a.coeff(idx), 64) - torus_samples(b.coeff(idx), 64)
        assert np.max(np.abs(gap)) < 1e-9, idx


def test_form_subtraction_adds_the_negation():
    # a - b is a + (-b), and its values are bit for bit those of the
    # coefficient-wise difference a_i - b_i
    rng = np.random.default_rng(3)
    pts = tuple(rng.uniform(-1.0, 1.0, 200) for _ in XYZ)
    forms = (*alpha_pm(), _A, _B, exterior_derivative(_A), exterior_derivative(_B))
    for a in forms:
        for b in forms:
            if (a.coords, a.degree) != (b.coords, b.degree):
                continue
            diff_form = a - b
            assert diff_form == a + -b
            for idx in a.coeffs.keys() | b.coeffs.keys():
                got = ex.compile_field(diff_form.coeff(idx), XYZ)(*pts)
                want = ex.compile_field(ex.sub(a.coeff(idx), b.coeff(idx)), XYZ)(*pts)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), idx


@pytest.mark.parametrize("chart", ["graph", "cat-fiber"])
def test_pullback_commutes_with_d(chart):
    psi = _chart(chart)
    for omega in (_G, _A):
        _assert_agree_on_torus(
            exterior_derivative(pullback(omega, UV, psi)),
            pullback(exterior_derivative(omega), UV, psi),
        )


@pytest.mark.parametrize("chart", ["graph", "cat-fiber"])
def test_pullback_of_a_wedge_is_the_wedge_of_pullbacks(chart):
    psi = _chart(chart)
    for a, b in ((_A, _B), (_G, _A)):
        _assert_agree_on_torus(
            pullback(wedge(a, b), UV, psi), wedge(pullback(a, UV, psi), pullback(b, UV, psi))
        )


@pytest.mark.parametrize("chart", ["graph", "cat-fiber"])
def test_pullback_refuses_a_degree_above_the_target_dimension(chart):
    with pytest.raises(geom.DegreeError):
        pullback(volume_form(), UV, _chart(chart))
    with pytest.raises(geom.DegreeError):
        pullback(wedge(_A, _B), ("u",), {k: ex.var("u") for k in XYZ})


def test_graph_chart_pulls_dz_back_to_d_phi():
    d_phi = pullback(one_form(XYZ, ex.ZERO, ex.ZERO, ex.ONE), UV, _GRAPH)
    t = np.arange(64) / 64
    u, v = 2 * np.pi * t[:, None], 2 * np.pi * t
    assert np.allclose(torus_samples(d_phi.coeff((0,)), 64), 0.2 * np.pi * np.cos(u) * np.cos(v),
                       rtol=0, atol=1e-12)
    assert np.allclose(torus_samples(d_phi.coeff((1,)), 64), -0.2 * np.pi * np.sin(u) * np.sin(v),
                       rtol=0, atol=1e-12)


def test_embedding_transversality_check():
    emb = _unit_fiber()
    X = (ex.ZERO, ex.ZERO, ex.ONE)
    assert emb.check_transverse(X) > 0.9
    tangent = (ex.ONE, ex.ZERO, ex.ZERO)
    with pytest.raises(geom.GeomError):
        emb.check_transverse(tangent)


# ---------------------------------------------------------------------------
# periodicity

def test_dz_is_periodic_under_any_gluing():
    g = Gluing3(
        P=((2.0, 1.0), (1.0, 1.0)),
        D=((1.0, 0.0), (0.0, 1.0)),
        nu=1.0,
    )
    dz = one_form(XYZ, ex.ZERO, ex.ZERO, ex.ONE)
    rep = check_periodicity(dz, g, n=6)
    assert rep.passed and rep.max_residual < 1e-12


def test_exp_x_dx_fails_lattice_periodicity():
    g = torus3()
    w = one_form(XYZ, parse_expr("exp(x)"), ex.ZERO, ex.ZERO)
    rep = check_periodicity(w, g, n=6)
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_gluing_validation():
    with pytest.raises(geom.GeomError):
        Gluing3(
            P=((2.0, 0.0), (0.0, 1.0)),
            D=((1.0, 0.0), (0.0, 1.0)),
            nu=1.0,
        ).validate()


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_gluing_refuses_a_deck_shift_that_is_not_finite(nu):
    ident = ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(geom.GeomError, match=r"deck shift nu must be positive and finite"):
        Gluing3(P=ident, D=ident, nu=nu).validate()


def test_torus3_is_checked_under_its_lattice_and_deck_maps():
    # the unit cube is the mapping torus of the identity with deck shift 1
    g = torus3()
    g.validate()
    periodic = one_form(XYZ, parse_expr("cos(2*pi*z)"), ex.ZERO, parse_expr("sin(2*pi*(x + y))"))
    assert check_periodicity(periodic, g, n=6).passed
    # z dx moves by dx under (x, y, z) -> (x, y, z - 1) and by nothing under a translation
    rep = check_periodicity(one_form(XYZ, Var("z"), ex.ZERO, ex.ZERO), g, n=6)
    assert not rep.passed and rep.worst_transform == "deck"
    assert rep.max_residual == pytest.approx(1.0, rel=1e-12)
    # x dy moves by dy under x -> x + 1 alone
    rep = check_periodicity(one_form(XYZ, ex.ZERO, Var("x"), ex.ZERO), g, n=6)
    assert not rep.passed and rep.worst_transform == "lattice_0"
    assert rep.max_residual == pytest.approx(1.0, rel=1e-12)
