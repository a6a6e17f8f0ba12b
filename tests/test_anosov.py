import itertools
import math
import re

import numpy as np
import pytest

from allab import expr as ex
from allab.anosov import (
    FlowModel,
    ModelError,
    chart_to_ambient,
    estimate_splitting,
    reeb_field_numeric,
    suspension_model,
    weak_foliations_on_torus,
)
from allab.contact import FormPair, al_check, liouville_direct_check
from allab.expr import evaluate, parse_expr
from allab.foliation import parallel_compact_leaves, winding
from allab.geom import (
    XYZ,
    DifferentialForm,
    GeomError,
    check_periodicity,
    exterior_derivative,
    one_form,
    restrict,
    torus3,
    wedge,
)

CAT = ((2, 1), (1, 1))
NU = math.log((3.0 + math.sqrt(5.0)) / 2.0)
SLOPE_U = (math.sqrt(5.0) - 1.0) / 2.0
SLOPE_S = -(1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def cat():
    return suspension_model(CAT)


def test_suspension_geometry(cat):
    assert cat.gluing.nu == pytest.approx(NU, rel=1e-14)
    P = cat.gluing.P_mat
    assert np.linalg.det(P) == pytest.approx(1.0, abs=1e-12)
    conj = np.linalg.solve(P, cat.gluing.D_mat @ P)
    assert np.allclose(conj, np.array(CAT, dtype=float), atol=1e-12)


def test_periodicity_residual_of_x_dy_lands_on_its_point(cat):
    # psi*(x dy) = x(psi(p)) d(y o psi): the deck map scales dy by D[1][1], so
    # the deck residual is |D00 D11 - 1| |x| (about 1e-16) and a translation
    # by t gives |t_x| at every point, up to rounding
    n = 5
    pts = _point_list(cat.gluing, n, 0.0)
    x, y = pts[:, 0], pts[:, 1]
    (t1, t2), D = cat.gluing.lattice_vectors(), cat.gluing.D_mat
    moves = {  # x after the move, d(y after the move) as (dx, dy) components
        "lattice_0": (x + t1[0], (0.0, 1.0)),
        "lattice_1": (x + t2[0], (0.0, 1.0)),
        "deck": (D[0, 0] * x + D[0, 1] * y, D[1]),
    }
    res = {
        name: np.maximum(np.abs(xm * dy[0]), np.abs(xm * dy[1] - x))
        for name, (xm, dy) in moves.items()
    }
    name = max(res, key=lambda m: res[m].max())
    per = check_periodicity(one_form(XYZ, ex.ZERO, parse_expr("x"), ex.ZERO), cat.gluing, n=n)
    assert per.worst_transform == name
    assert per.max_residual == pytest.approx(res[name].max(), rel=1e-9)
    assert res["deck"].max() < 1e-15
    # the translation residual is constant but for rounding: any point may carry it
    [k] = np.flatnonzero(np.all(np.abs(pts - per.worst_point) < 1e-12, axis=1))
    assert res[name][k] == pytest.approx(per.max_residual, rel=1e-9)


def test_suspension_rejects_bad_matrices():
    with pytest.raises(ModelError, match="hyperbolic"):
        suspension_model(((1, 1), (0, 1)))
    with pytest.raises(ModelError, match="unimodular"):
        suspension_model(((2, 0), (0, 1)))
    with pytest.raises(ModelError, match="integer"):
        suspension_model(((1.5, 1), (1, 1)))
    with pytest.raises(ModelError, match="negative-trace"):
        suspension_model(((-2, -1), (-1, -1)))


def test_defining_pair_is_periodic(cat):
    for alpha in (cat.alpha_plus, cat.alpha_minus, cat.alpha_u, cat.alpha_s):
        rep = check_periodicity(alpha, cat.gluing, n=6)
        assert rep.passed, rep


def test_model_validates(cat):
    assert cat.validate()


def test_validate_catches_wrong_rate(cat):
    broken = FlowModel(
        gluing=cat.gluing,
        X=cat.X,
        alpha_u=cat.alpha_u,
        alpha_s=cat.alpha_s,
        r_u=ex.const(2.0),
        r_s=ex.const(-1.0),
    )
    with pytest.raises(ModelError, match="identity fails"):
        broken.validate()


def test_standard_pair_is_anosov_liouville(cat):
    rep = al_check(cat.standard_pair(), n=10)
    assert rep.verdict == "anosov_liouville"
    assert rep.f_plus.min == pytest.approx(2.0, rel=1e-12)
    assert rep.f_minus.min == pytest.approx(2.0, rel=1e-12)
    assert rep.f_zero.max == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("C", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_standard_pair_refuses_a_scale_that_is_zero_or_not_finite(cat, C):
    # C = 0 raised ZeroDivisionError before
    with pytest.raises(ModelError, match=rf"C = {re.escape(repr(C))} is not finite and nonzero"):
        cat.standard_pair(C)


def test_standard_pair_with_a_negative_scale_has_the_same_densities(cat):
    # -C negates both forms: a ^ da and d(a_- ^ a_+) are quadratic in them
    got, want = al_check(cat.standard_pair(-2.0), n=6), al_check(cat.standard_pair(2.0), n=6)
    assert got.verdict == want.verdict == "anosov_liouville"
    for q in ("f_plus", "f_minus", "f_zero"):
        assert getattr(got, q).min == pytest.approx(getattr(want, q).min, rel=1e-12, abs=1e-12)
        assert getattr(got, q).max == pytest.approx(getattr(want, q).max, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [0, -3, 2.5, np.int64(0), "4"])
def test_grid_checks_refuse_a_size_not_an_integer_of_at_least_1(cat, n):
    # every check samples Gluing3.sample_points: n = 0 and -3 raised numpy
    # errors, and al_check took n = 2.5 as the 3-point grid 0, 0.4, 0.8
    pair = cat.standard_pair()
    checks = (lambda: al_check(pair, n=n), lambda: liouville_direct_check(pair, n=n),
              lambda: check_periodicity(cat.alpha_u, cat.gluing, n=n))
    refusal = rf"grid size n = {re.escape(repr(n))} is not an integer of at least 1"
    for check in checks:
        with pytest.raises(GeomError, match=refusal):
            check()


def test_grid_checks_take_one_point_and_numpy_integers(cat):
    pair = cat.standard_pair()
    assert al_check(pair, n=np.int64(1)).verdict == "anosov_liouville"
    assert liouville_direct_check(pair, n=1).passed
    assert check_periodicity(cat.alpha_u, cat.gluing, n=np.int64(2)).passed


def test_fiber_restrictions_are_closed(cat):
    sigma = cat.fiber(0.0)
    for alpha in (cat.alpha_u, cat.alpha_s):
        da = exterior_derivative(restrict(alpha, sigma))
        assert evaluate(da.coeff((0, 1)), {"u": 0.3, "v": 0.7}) == pytest.approx(
            0.0, abs=1e-12
        )


def test_weak_foliation_slopes(cat):
    sigma = cat.fiber(0.0)
    F_ws, F_wu = weak_foliations_on_torus(cat, sigma)
    # their defining forms are the restricted ones, which the certificate
    # pipeline reads from them
    assert F_ws.form == restrict(cat.alpha_u, sigma)
    assert F_wu.form == restrict(cat.alpha_s, sigma)
    p = {"u": 0.2, "v": 0.6}
    slope_ws = evaluate(F_ws.V2, p) / evaluate(F_ws.V1, p)
    slope_wu = evaluate(F_wu.V2, p) / evaluate(F_wu.V1, p)
    assert slope_ws == pytest.approx(SLOPE_S, abs=1e-9)
    assert slope_wu == pytest.approx(SLOPE_U, abs=1e-9)


def test_weak_foliations_have_no_winding_and_no_shared_leaves(cat):
    F_ws, F_wu = weak_foliations_on_torus(cat, cat.fiber(0.0))
    assert winding(F_ws) == (0, 0)
    assert winding(F_wu) == (0, 0)
    verdict = parallel_compact_leaves(F_ws, F_wu)
    assert verdict.verdict == "not_parallel"


def test_tangent_induced_foliations_are_a_model_error():
    # alpha_u = dx and alpha_s = 2 dx cut the same foliation on every fiber
    gluing = torus3()
    dx = one_form(XYZ, ex.ONE, ex.ZERO, ex.ZERO)
    model = FlowModel(
        gluing=gluing,
        X=(ex.ZERO, ex.ZERO, ex.ONE),
        alpha_u=dx,
        alpha_s=dx.scale(2.0),
        r_u=ex.ONE,
        r_s=ex.const(-1.0),
    )
    with pytest.raises(ModelError, match=r"not transverse: .*min \|det\|"):
        weak_foliations_on_torus(model, model.fiber(0.0))


def test_splitting_estimate_unstable(cat):
    est = estimate_splitting(cat)
    # a splitting that does not converge raises
    assert est.iterations <= 30
    assert est.slope == pytest.approx(SLOPE_U, abs=1e-6)
    assert est.expansion_factor == pytest.approx(math.exp(NU), abs=1e-9)
    amb = chart_to_ambient(cat, est.direction)
    # the unstable direction is annihilated by the contracting form
    pairing = sum(
        evaluate(cat.alpha_s.coeff((i,)), dict(zip(XYZ, (0.1, 0.2, 0.0)))) * amb[i]
        for i in range(3)
    )
    assert abs(pairing) < 1e-6


def test_splitting_estimate_stable(cat):
    est = estimate_splitting(cat, reverse=True)
    assert est.slope == pytest.approx(SLOPE_S, abs=1e-6)
    assert est.expansion_factor == pytest.approx(math.exp(NU), abs=1e-9)


def test_splitting_estimate_time_scaling(cat):
    est = estimate_splitting(cat, T=2.5)
    assert est.slope == pytest.approx(SLOPE_U, abs=1e-6)
    assert est.expansion_factor == pytest.approx(math.exp(2.5), rel=1e-9)
    with pytest.raises(ModelError, match="positive"):
        estimate_splitting(cat, T=-1.0)


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_splitting_estimate_refuses_a_time_horizon_that_is_not_finite(cat, T):
    # both ran all 100 iterations, warned from matmul and divide, and did not converge
    with pytest.raises(ModelError, match="time horizon must be positive and finite"):
        estimate_splitting(cat, T=T)


def test_reeb_field_of_standard_plus(cat):
    R = reeb_field_numeric(cat.alpha_plus)
    pts = np.array(
        [[0.0, 0.0, 0.0], [0.3, -0.2, 0.4], [-0.1, 0.5, -0.3]]
    )
    vals = R(pts.T)
    for (x, y, z), r in zip(pts, vals.T):
        assert r[0] == pytest.approx(0.5 * math.exp(-z), abs=1e-9)
        assert r[1] == pytest.approx(0.5 * math.exp(z), abs=1e-9)
        assert abs(r[2]) < 1e-9  # tangent to the fibers


def test_reeb_field_standard_contact_form():
    # alpha = dz + x dy on R^3: Reeb field is exactly d/dz
    alpha = one_form(XYZ, ex.ZERO, parse_expr("x"), ex.ONE)
    R = reeb_field_numeric(alpha)
    vals = R(np.array([[0.2, 0.4, 0.1]]).T)
    assert np.allclose(vals[:, 0], [0.0, 0.0, 1.0], atol=1e-9)


def test_checks_refuse_a_field_not_finite_at_their_samples(cat):
    nan_z = (ex.ZERO, ex.ZERO, parse_expr("sqrt(x - 5)"))
    with pytest.raises(GeomError, match="not transverse"):
        cat.fiber(0.0).check_transverse(nan_z)
    nan_form = DifferentialForm(XYZ, 0, {(): parse_expr("sqrt(x - 5)")})
    assert not check_periodicity(nan_form, cat.gluing).passed
    # d(lambda)^2 is NaN wherever x < 0.5
    nan_dz = one_form(XYZ, ex.ZERO, ex.ZERO, parse_expr("0.001*sqrt(x - 0.5)"))
    pair = FormPair(cat.alpha_plus + nan_dz, cat.alpha_minus, cat.gluing)
    assert not liouville_direct_check(pair, n=8).passed
    broken = FlowModel(
        gluing=cat.gluing,
        X=nan_z,
        alpha_u=cat.alpha_u,
        alpha_s=cat.alpha_s,
        r_u=cat.r_u,
        r_s=cat.r_s,
    )
    with pytest.raises(ModelError, match="identity fails"):
        broken.validate()
    # dz is closed, so dz ^ d(dz) = 0: not a contact form
    R = reeb_field_numeric(one_form(XYZ, ex.ZERO, ex.ZERO, ex.ONE))
    with pytest.raises(ModelError, match="not contact"):
        R((np.array([0.1]), np.array([0.2]), np.array([0.3])))


# ---------------------------------------------------------------------------
# grid extrema on the cat map's sheared lattice, against a point list

def _point_list(gluing, n, z_lo):
    """The (n^3, 3) chart points of the fundamental domain, in (i, j, k)
    order, built point by point."""
    P = gluing.P_mat
    return np.array([
        (P[0, 0] * i / n + P[0, 1] * j / n, P[1, 0] * i / n + P[1, 1] * j / n,
         z_lo + k / n * gluing.nu)
        for i, j, k in itertools.product(range(n), repeat=3)
    ])


def _volumes(form3, pts):
    return np.array([form3.evaluate(dict(zip(XYZ, p)))[(0, 1, 2)] for p in pts])


def test_grid_extrema_land_on_their_points(cat):
    n = 5
    plus = cat.alpha_plus + one_form(
        XYZ, ex.ZERO, ex.ZERO, parse_expr("0.3*sin(x + 2*y)*cos(z)")
    )
    minus = cat.alpha_minus + one_form(
        XYZ, parse_expr("0.2*cos(3*y - z)"), ex.ZERO, ex.ZERO
    )
    pair = FormPair(plus, minus, cat.gluing)
    pts = _point_list(cat.gluing, n, -0.5 * cat.gluing.nu)
    f_plus = _volumes(wedge(plus, exterior_derivative(plus)), pts)
    f_minus = -_volumes(wedge(minus, exterior_derivative(minus)), pts)
    f_zero = _volumes(exterior_derivative(wedge(minus, plus)), pts)
    rep = al_check(pair, n=n)
    for stats, vals in (
        (rep.f_plus, f_plus),
        (rep.f_minus, f_minus),
        (rep.f_zero, f_zero),
        (rep.discriminant, 4.0 * f_plus * f_minus - f_zero**2),
    ):
        k = int(np.argmin(vals))
        assert stats.argmin == pytest.approx(tuple(pts[k]), abs=1e-12)
        assert stats.min == pytest.approx(vals[k], rel=1e-9)

    # d(lambda)^2 = 2 (e^2s f_+ + e^-2s f_- + f_0) ds ^ dvol
    s = np.linspace(-3, 3, 13)[:, None]
    top = 2.0 * (np.exp(2 * s) * f_plus + np.exp(-2 * s) * f_minus + f_zero)
    i, k = np.unravel_index(int(np.argmin(top)), top.shape)
    direct = liouville_direct_check(pair, n=n)
    assert direct.argmin == pytest.approx((s[i, 0], *pts[k]), abs=1e-12)
    assert direct.min_value == pytest.approx(top[i, k], rel=1e-9)

    # g(psi(p)) - g(p) for the lattice translations and the deck map
    g = parse_expr("x*x + z*sin(y)")
    pts = _point_list(cat.gluing, n, 0.0)
    (t1, t2), D = cat.gluing.lattice_vectors(), cat.gluing.D_mat
    moves = {
        "lattice_0": lambda x, y, z: (x + t1[0], y + t1[1], z),
        "lattice_1": lambda x, y, z: (x + t2[0], y + t2[1], z),
        "deck": lambda x, y, z: (*(D @ (x, y)), z - cat.gluing.nu),
    }
    res = {
        name: [abs(evaluate(g, dict(zip(XYZ, move(*p)))) - evaluate(g, dict(zip(XYZ, p))))
               for p in pts]
        for name, move in moves.items()
    }
    name = max(res, key=lambda m: max(res[m]))
    k = int(np.argmax(res[name]))
    per = check_periodicity(DifferentialForm(XYZ, 0, {(): g}), cat.gluing, n=n)
    assert per.worst_transform == name
    assert per.worst_point == pytest.approx(tuple(pts[k]), abs=1e-12)
    assert per.max_residual == pytest.approx(res[name][k], rel=1e-9)
