import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from allab import expr as ex
from allab import contact, geom
from allab.anosov import suspension_model
from allab.contact import (
    ContactError,
    FormPair,
    PerturbationError,
    al_check,
    convex_combination,
    extend_scaling,
    liouville_direct_check,
    perturb_pair,
)
from allab.expr import Const, compile_field, parse_expr
from allab.geom import (
    DifferentialForm,
    UV,
    XYZ,
    exterior_derivative,
    fiber_embedding,
    grid_point,
    one_form,
    restrict,
    torus3,
    volume_form,
    wedge,
)


def standard_pair(gluing=None):
    ez = parse_expr("exp(z)")
    emz = parse_expr("exp(-z)")
    plus = one_form(XYZ, ez, emz, ex.ZERO)
    minus = one_form(XYZ, ex.neg(ez), emz, ex.ZERO)
    return FormPair(plus, minus, gluing if gluing is not None else torus3())


def scaled_pair(C, gluing=None):
    p = standard_pair(gluing)
    return FormPair(
        p.plus.scale(Const(float(C))),
        p.minus.scale(Const(1.0 / C)),
        p.gluing,
    )


def fail_pair():
    plus = one_form(XYZ, ex.ONE, ex.ONE, ex.ZERO)
    minus = one_form(XYZ, ex.ONE, Const(-1.0), ex.ZERO)
    return FormPair(plus, minus, torus3())


def test_al_check_standard_pair():
    rep = al_check(standard_pair(), n=8)
    assert rep.verdict == "anosov_liouville"
    assert rep.f_plus.min == pytest.approx(2.0, rel=1e-12)
    assert rep.f_plus.max == pytest.approx(2.0, rel=1e-12)
    assert rep.f_minus.min == pytest.approx(2.0, rel=1e-12)
    assert rep.f_zero.min == pytest.approx(0.0, abs=1e-12)
    assert rep.f_zero.max == pytest.approx(0.0, abs=1e-12)
    assert rep.discriminant.min == pytest.approx(16.0, rel=1e-12)


def test_al_check_closed_pair_fails():
    rep = al_check(fail_pair(), n=6)
    assert rep.verdict == "fail"
    assert rep.f_plus.max == pytest.approx(0.0, abs=1e-14)
    assert rep.f_minus.max == pytest.approx(0.0, abs=1e-14)
    assert rep.f_zero.max == pytest.approx(0.0, abs=1e-14)


def test_al_check_scaled_pair():
    rep = al_check(scaled_pair(10.0), n=6)
    assert rep.verdict == "anosov_liouville"
    assert rep.f_plus.min == pytest.approx(200.0, rel=1e-12)
    assert rep.f_minus.min == pytest.approx(0.02, rel=1e-12)
    assert rep.f_zero.max == pytest.approx(0.0, abs=1e-12)


def test_scaling_leaves_discriminant_ratio_invariant():
    base = al_check(standard_pair(), n=6)
    for C in (2.0, 10.0, 0.3):
        rep = al_check(scaled_pair(C), n=6)
        assert rep.verdict == "anosov_liouville"
        # f_0^2 / (4 f_+ f_-) is scale invariant; both vanish identically here
        ratio = rep.f_zero.max**2 / (
            4.0 * rep.f_plus.min * rep.f_minus.min
        )
        base_ratio = base.f_zero.max**2 / (
            4.0 * base.f_plus.min * base.f_minus.min
        )
        assert ratio == pytest.approx(base_ratio, abs=1e-9)


def test_direct_check_standard_pair():
    rep = liouville_direct_check(standard_pair(), n=6)
    assert rep.passed
    # min over s of 2(e^2s f_+ + e^-2s f_- + f_0) with f_+- = 2, f_0 = 0
    assert rep.min_value == pytest.approx(8.0, rel=1e-10)
    assert rep.argmin[0] == pytest.approx(0.0, abs=1e-12)


def test_direct_check_closed_pair_fails():
    rep = liouville_direct_check(fail_pair(), n=4)
    assert not rep.passed
    assert rep.min_value == pytest.approx(0.0, abs=1e-14)


def _randomly_perturbed_pair(rng):
    amp = rng.uniform(0.0, 0.12)
    k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
    wob = parse_expr(f"{amp}*sin(2*pi*{k1}*x)*cos(2*pi*{k2}*y)")
    p = standard_pair()
    plus = p.plus + one_form(XYZ, wob, ex.ZERO, ex.ZERO)
    minus = p.minus + one_form(XYZ, ex.ZERO, wob, ex.ZERO)
    return FormPair(plus, minus, p.gluing)


def test_cross_oracle_agreement_on_random_pairs():
    rng = random.Random(20240821)
    for _ in range(20):
        pair = _randomly_perturbed_pair(rng)
        rep = al_check(pair, n=10)
        flipped = FormPair(pair.plus, -pair.minus, pair.gluing)
        rep_f = al_check(flipped, n=10)
        assert rep.verdict == rep_f.verdict
        direct = liouville_direct_check(pair, n=10)
        assert direct.passed == (rep.verdict == "anosov_liouville")


@np.errstate(all="ignore")
def _full_grid_report(pair, pts):
    """al_check's numbers with every density broadcast to all points of the
    grid before the arithmetic, and np.argmin / np.max taken over those."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in pts))

    def density(form3):
        return np.broadcast_to(compile_field(form3.coeff((0, 1, 2)), XYZ)(*pts), shape)

    vol = density(volume_form())
    f_plus = density(wedge(pair.plus, exterior_derivative(pair.plus))) / vol
    f_minus = -density(wedge(pair.minus, exterior_derivative(pair.minus))) / vol
    f_zero = density(exterior_derivative(wedge(pair.minus, pair.plus))) / vol
    disc = 4.0 * f_plus * f_minus - f_zero**2

    def stats(v):
        i = int(np.argmin(v))
        return {"min": float(v.flat[i]), "max": float(np.max(v)),
                "argmin": list(grid_point(pts, i))}

    return {"grid_n": int(np.prod(shape)), "f_plus": stats(f_plus),
            "f_minus": stats(f_minus), "f_zero": stats(f_zero),
            "discriminant": stats(disc)}


def test_al_check_matches_the_full_grid():
    cat = suspension_model(((2, 1), (1, 1))).standard_pair()  # z only
    wobbly = _randomly_perturbed_pair(random.Random(3))  # x, y and z
    nan_pair = FormPair(  # f_+ is NaN for z >= 0, where d sqrt(-z) is infinite or NaN
        standard_pair().plus.scale(parse_expr("1 + sqrt(-z)")),
        standard_pair().minus,
        torus3(),
    )
    scattered = (np.array([0.1, 0.7, 0.3, 0.9, 0.45]),
                 np.array([0.2, 0.5, 0.9, 0.05, 0.6]),
                 np.array([-0.3, 0.0, 0.25, 0.4, -0.1]))
    cases = [(cat, 12), (wobbly, 10), (fail_pair(), 6), (nan_pair, 8), (wobbly, scattered)]
    for pair, grid in cases:
        if isinstance(grid, int):
            rep, ref = al_check(pair, n=grid), _full_grid_report(pair, pair.grid(grid))
            ref["grid_n"] = grid
        else:
            rep, ref = al_check(pair, points=grid), _full_grid_report(pair, grid)
        got = rep.to_dict()
        del got["verdict"]
        # json keeps NaN and the sign of zero, which == on floats would not
        assert json.dumps(got) == json.dumps(ref)
    # a constant density ties everywhere: the first grid point
    closed = al_check(fail_pair(), n=6)
    assert closed.f_plus.argmin == grid_point(fail_pair().grid(6), 0)
    nan_rep = al_check(nan_pair, n=8)
    assert nan_rep.verdict == "fail"
    assert math.isnan(nan_rep.f_plus.min)
    assert nan_rep.f_plus.argmin == (0.0, 0.0, 0.0)  # the first z = -0.5 + k/8 >= 0
    assert al_check(wobbly, points=scattered).grid_n == 5


def test_al_check_derives_the_contact_volumes_once_per_pair(monkeypatch):
    calls = []

    def counted(omega):
        calls.append(omega)
        return exterior_derivative(omega)

    def cat_pair():
        return suspension_model(((2, 1), (1, 1))).standard_pair()

    pair = cat_pair()
    monkeypatch.setattr(contact, "exterior_derivative", counted)
    reports = [al_check(pair, n=n).to_dict() for n in (48, 96)]
    # da_+, da_- and d(a_- ^ a_+), for both grids
    assert len(calls) == 3
    monkeypatch.undo()
    fresh = cat_pair()
    assert fresh == pair and "contact_volumes" not in vars(fresh)
    for n, rep in zip((48, 96), reports):
        assert json.dumps(rep) == json.dumps(al_check(fresh, n=n).to_dict())


def test_al_check_report_serializes_with_a_numpy_grid_size():
    pair = suspension_model(((2, 1), (1, 1))).standard_pair()
    d = al_check(pair, n=np.int64(3)).to_dict()
    assert type(d["grid_n"]) is int and d["grid_n"] == 3
    assert json.loads(json.dumps(d)) == d


def test_al_check_memory_stays_at_the_shape_of_the_densities():
    # z-only densities: 96 values each, not 96^3 (43.5 MB traced on the full grid)
    pair = suspension_model(((2, 1), (1, 1))).standard_pair()
    tracemalloc.start()
    try:
        al_check(pair, n=96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# perturbation

def _fiber(z0=0.5):
    return fiber_embedding(torus3(), z=z0)


def test_perturb_identity_returns_same_pair():
    p = standard_pair()
    sigma = _fiber()
    beta = restrict(p.plus + p.minus, sigma)
    out = perturb_pair(p, beta, sigma, beta)
    assert not out.changed
    assert out.pair is p


def test_perturb_small_target_keeps_margins():
    p = standard_pair()
    sigma = _fiber()
    restricted = restrict(p.plus + p.minus, sigma)
    beta = restricted.scale(Const(1.0 + 1e-3))
    out = perturb_pair(p, beta, sigma, restricted)
    assert out.changed
    assert out.restriction_residual < 1e-12
    assert out.warnings == ()
    base = al_check(p, n=24)
    got = out.al_report
    assert got.verdict == "anosov_liouville"
    assert got.f_plus.min == pytest.approx(base.f_plus.min, rel=1e-2)
    assert got.f_plus.max == pytest.approx(base.f_plus.max, rel=1e-2)
    assert got.f_minus.min == pytest.approx(base.f_minus.min, rel=1e-2)
    assert got.discriminant.min == pytest.approx(
        base.discriminant.min, rel=2e-2
    )


def test_perturb_huge_target_fails_al_check():
    p = standard_pair()
    sigma = _fiber()
    restricted = restrict(p.plus + p.minus, sigma)
    beta = restricted.scale(Const(11.0))
    with pytest.raises(PerturbationError, match="AL check failed after perturbation"):
        perturb_pair(p, beta, sigma, restricted)


def test_perturb_rejects_nonclosed_target():
    p = standard_pair()
    sigma = _fiber()
    beta = one_form(UV, parse_expr("sin(2*pi*v)"), ex.ZERO)
    with pytest.raises(PerturbationError, match="not closed"):
        perturb_pair(p, beta, sigma, restrict(p.plus + p.minus, sigma))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("du", [
    pytest.param(Const(math.nan), id="nan-constant"),  # a constant has no curl
    pytest.param(parse_expr("log(sin(pi*u))"), id="log-zero"),  # -inf at u = 0
])
def test_perturb_rejects_a_non_finite_target(du):
    cat = suspension_model(((2, 1), (1, 1)))
    p, sigma = cat.standard_pair(10.0), cat.fiber(0.0)
    beta = DifferentialForm(UV, 1, {(0,): du, (1,): ex.ONE})
    with pytest.raises(PerturbationError, match="non-finite coefficients"):
        perturb_pair(p, beta, sigma, restrict(p.plus + p.minus, sigma))


def test_perturb_samples_each_coefficient_of_the_target_once(monkeypatch):
    p, sigma = standard_pair(), _fiber()
    restricted = restrict(p.plus + p.minus, sigma)
    beta = restricted.scale(Const(1.05))
    sampled, samples = [], geom.torus_samples

    def counted(e, n):
        sampled.append(e)
        return samples(e, n)

    monkeypatch.setattr(geom, "torus_samples", counted)
    monkeypatch.setattr(contact, "torus_samples", counted)
    assert perturb_pair(p, beta, sigma, restricted).changed
    counts = [sampled.count(c) for c in beta.coeffs.values()]
    assert counts and counts == [1] * len(counts)


def test_perturb_large_but_valid_target_warns():
    p = standard_pair()
    sigma = _fiber()
    restricted = restrict(p.plus + p.minus, sigma)
    beta = restricted.scale(Const(1.05))
    out = perturb_pair(p, beta, sigma, restricted)
    assert out.changed
    assert any("threshold" in w for w in out.warnings)
    assert out.al_report.verdict == "anosov_liouville"


# ---------------------------------------------------------------------------
# scaling extension

def test_extend_scaling_rate_one_inner_band_constant():
    f = parse_expr("1 + 0.25*sin(2*pi*u)*cos(2*pi*v)")
    mu = extend_scaling(f, ex.ONE, delta=0.2, eps=0.1, c=0.5, C=2.0)
    fn = mu.mu_fn()
    f_fn = compile_field(f, UV)
    a = np.arange(16) / 16.0
    U, V = np.meshgrid(a, a, indexing="ij")
    # on the torus the scaling is reproduced bit for bit
    assert np.array_equal(fn(U, V, np.zeros_like(U)), f_fn(U, V))
    # rate 1 makes the whole inner band constant in z
    for z in (-0.1, -0.04, 0.03, 0.1):
        assert np.allclose(fn(U, V, np.full_like(U, z)), f_fn(U, V), atol=1e-13)
    assert mu.margin > 0.5


def test_extend_scaling_half_rate_matches_inner_formula():
    f = ex.ONE
    r = Const(0.5)
    eps, delta = 0.1, 0.3
    lam_eps = math.exp(0.5 * eps)
    mu = extend_scaling(f, r, delta=delta, eps=eps, c=0.5 / lam_eps, C=2.0 * lam_eps)
    fn = mu.mu_fn()
    for z in np.linspace(-eps, eps, 11):
        assert fn(0.2, 0.7, z) == pytest.approx(math.exp(0.5 * z), rel=1e-12)
    # log-linear bridge stays between the band value and the plateau
    mid = fn(0.0, 0.0, 0.5 * (eps + delta))
    assert lam_eps < mid < 2.0 * lam_eps
    assert mu.margin > 0.0


def test_extend_scaling_plateaus_are_constant():
    f = parse_expr("1 + 0.25*sin(2*pi*u)*cos(2*pi*v)")
    mu = extend_scaling(f, Const(0.8), delta=0.2, eps=0.1, c=0.3, C=3.0)
    fn = mu.mu_fn()
    rng = random.Random(4)
    hi = [fn(rng.random(), rng.random(), rng.uniform(0.2, 0.4)) for _ in range(30)]
    lo = [fn(rng.random(), rng.random(), rng.uniform(-0.4, -0.2)) for _ in range(30)]
    assert max(hi) - min(hi) < 1e-12
    assert max(lo) - min(lo) < 1e-12
    assert np.mean(hi) == pytest.approx(3.0, rel=1e-12)
    assert np.mean(lo) == pytest.approx(0.3, rel=1e-12)


def _margin_on_grid(mu, n_uv, n_z):
    """min of d/dz log(mu) + r on the n_uv x n_uv x n_z grid of (u, v) in
    the torus and z in [-2 delta, 2 delta]."""
    a = np.arange(n_uv) / n_uv
    zs = np.linspace(-2 * mu.delta, 2 * mu.delta, n_z)
    fn = ex.compile_kernel(ex.add(mu.dz_log_mu, mu.r), ("u", "v", "z"))
    return float(np.min(fn(*np.ix_(a, a, zs))))


def test_extend_scaling_margin_positive_everywhere():
    f = parse_expr("1 + 0.25*sin(2*pi*u)*cos(2*pi*v)")
    for r_text in ("1", "0.5", "0.5 + 0.1*cos(2*pi*u)"):
        r = parse_expr(r_text)
        mu = extend_scaling(f, r, delta=0.2, eps=0.1, c=0.3, C=3.0)
        assert _margin_on_grid(mu, 16, 128) > 0.0
        assert mu.margin == _margin_on_grid(mu, 24, 64)


def test_extend_scaling_precondition_errors():
    f, r = ex.ONE, ex.ONE
    with pytest.raises(ContactError):
        extend_scaling(f, r, delta=0.1, eps=0.1, c=0.5, C=2.0)
    with pytest.raises(ContactError):
        extend_scaling(f, r, delta=0.2, eps=0.1, c=0.5, C=0.9)  # C below max
    with pytest.raises(ContactError):
        extend_scaling(f, r, delta=0.2, eps=0.1, c=1.1, C=2.0)  # c above min
    with pytest.raises(ContactError):
        extend_scaling(f, Const(-0.2), delta=0.2, eps=0.1, c=0.5, C=2.0)


# NaN for u < 0.5 (log of a negative) and a division by zero at u = 0.5
_NAN_HALF = "1 + 0*log(u - 0.5)"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f, r, c, C, reason", [
    pytest.param(_NAN_HALF, "1", 0.5, 2.0, "scaling f must be positive", id="nan-f"),
    pytest.param("1", _NAN_HALF, 0.5, 2.0, "expansion rate r must be positive", id="nan-r"),
    pytest.param("1", "1", math.nan, 2.0, "plateau constants must be positive and finite",
                 id="nan-c"),
    pytest.param("1", "1", 0.5, math.inf, "plateau constants must be positive and finite",
                 id="inf-C"),
])
def test_extend_scaling_refuses_what_is_not_finite(f, r, c, C, reason):
    with pytest.raises(ContactError, match=reason):
        extend_scaling(parse_expr(f), parse_expr(r), delta=0.2, eps=0.1, c=c, C=C)


# ---------------------------------------------------------------------------
# convex combinations

def test_convex_combination_endpoints():
    p = standard_pair()
    q = scaled_pair(2.0)
    pair0, rep0 = convex_combination(p, q, 0.0, n=6)
    assert pair0 is p and rep0.verdict == "anosov_liouville"
    pair1, _ = convex_combination(p, q, 1.0, n=6)
    assert pair1 is q


def test_convex_sweep_stays_anosov_liouville():
    p = standard_pair()
    h = 0.5 * math.log(2.0)
    q = FormPair(
        p.plus.scale(Const(math.exp(h))),
        p.minus.scale(Const(math.exp(-h))),
        p.gluing,
    )
    for t in np.linspace(0.0, 1.0, 11):
        _, rep = convex_combination(p, q, float(t), n=6)
        assert rep.verdict == "anosov_liouville"
