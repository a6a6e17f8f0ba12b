import math
import re
import sys
import time

import numpy as np
import pytest

from allab import expr as ex
from allab import foliation as fol
from allab import library, prelag
from allab.anosov import FlowModel, suspension_model, weak_foliations_on_torus
from allab.contact import ContactError, al_check
from allab.expr import Const, parse_expr
from allab.foliation import FoliationError, cone_separation, parallel_compact_leaves
from allab.geom import (
    UV,
    XYZ,
    GeomError,
    TorusEmbedding,
    fiber_embedding,
    one_form,
    restrict,
    torus3,
    torus_samples,
)
from allab.prelag import (
    GraphCheck,
    PreLagError,
    check_graph_lagrangian,
    closedness_objective,
    obstruction_test,
    pre_lagrangian_certificate,
    scaling_solve,
)


@pytest.fixture(scope="module")
def cat():
    return suspension_model(((2, 1), (1, 1)))


@pytest.fixture(scope="module")
def planted_solution():
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    t0 = time.monotonic()
    sol = scaling_solve(a, b, n=64)
    sol_time = time.monotonic() - t0
    return sol, sol_time


def _no_beta_pair():
    # a = 2 (X2 du - X1 dv) and b = 2 (Y2 du - Y1 dv), where X and Y are
    # omega = du + cos(2 pi v) dv turned by pi/3 and -pi/3, and X is scaled
    # by e^h, h = 0.1 sin 2 pi u: e^-h a - b = 2 sqrt(3) omega is closed.
    # omega's direction sweeps +-pi/4, so X and Y, the normals the constant
    # beta must fit in a half-plane, sweep 7 pi / 6: no constant beta exists
    e = "exp(0.1*sin(2*pi*u))"
    a = one_form(UV, parse_expr(f"{e}*(sqrt(3) + cos(2*pi*v))"),
                 parse_expr(f"{e}*(sqrt(3)*cos(2*pi*v) - 1)"))
    b = one_form(UV, parse_expr("cos(2*pi*v) - sqrt(3)"),
                 parse_expr("-(1 + sqrt(3)*cos(2*pi*v))"))
    return a, b


def _planted_no_beta_pair():
    # a = X2 du - X1 dv and b = Y2 du - Y1 dv for X = e^s R(tx) omega and
    # Y = R(ty) omega, where omega = du + d((3/2 pi) sin 2 pi v
    # + (0.5/2 pi) sin 2 pi (u + v)), s = 0.3 sin 2 pi v,
    # tx = pi/3 + 0.4 sin 2 pi u and ty = -pi/3 + 0.3 cos 2 pi (u - v):
    # beta = omega is closed, and |tx|, |ty| < pi/2 make beta(X), beta(Y) > 0.
    # omega's direction turns with v, so no constant beta exists
    w1, w2 = "(1 + 0.5*cos(2*pi*(u + v)))", "(3*cos(2*pi*v) + 0.5*cos(2*pi*(u + v)))"

    def turned(t, scale):
        t = f"({t})"
        return (parse_expr(f"{scale}*(sin{t}*{w1} + cos{t}*{w2})"),
                parse_expr(f"-{scale}*(cos{t}*{w1} - sin{t}*{w2})"))

    a = one_form(UV, *turned("pi/3 + 0.4*sin(2*pi*u)", "exp(0.3*sin(2*pi*v))"))
    b = one_form(UV, *turned("-pi/3 + 0.3*cos(2*pi*(u - v))", "1"))
    return a, b


def _eight_band_forms():
    # a = V2 du - V1 dv for each field: leaves of opposite oriented classes
    # leave no closed beta positive on both fields
    return tuple(one_form(UV, H.V2, ex.neg(H.V1)) for H in library.eight_band_pair())


# ---------------------------------------------------------------------------
# obstruction test

def test_obstruction_cat_fibers(cat):
    F_ws, F_wu = weak_foliations_on_torus(cat, cat.fiber(0.0))
    res = obstruction_test(F_ws, F_wu)
    assert res.verdict == "passes_obstruction"
    assert res.winding_ws == (0, 0)
    assert res.winding_wu == (0, 0)


def test_obstruction_degree_one_pair():
    res = obstruction_test(*library.franks_williams_pair())
    assert res.verdict == "obstructed"
    assert res.winding_ws == (1, 0)
    assert res.winding_wu == (1, 0)


def test_obstruction_is_not_sufficient():
    # zero winding does not mean the construction can succeed
    res = obstruction_test(*library.eight_band_pair())
    assert res.verdict == "passes_obstruction"


def test_obstruction_requires_transverse_input():
    F, _ = library.franks_williams_pair()
    with pytest.raises(FoliationError):
        obstruction_test(F, F)


def test_transversality_is_checked_once_per_pipeline_run(monkeypatch):
    # obstruction_test, parallel_compact_leaves and cone_separation each need
    # a transverse pair; one check samples each of the four components once
    F, G = library.eight_band_pair()
    fol._check_transverse_pair.cache_clear()
    offsets = []
    kernel = fol.compile_kernel

    def recorded(e, names):
        fn = kernel(e, names)

        def call(*args):
            u = np.ravel(args[0])
            offsets.append(u[0] * u.size)  # the grid (i + offset) / n
            return fn(*args)

        return call

    monkeypatch.setattr(fol, "compile_kernel", recorded)
    rep = pre_lagrangian_certificate(foliations=(F, G))
    assert rep.parallel_verdict == "parallel"  # every stage ran
    assert offsets.count(0.382) == 4


def test_a_tangent_pair_is_refused_by_every_stage():
    F, _ = library.franks_williams_pair()
    for stage in (obstruction_test, parallel_compact_leaves, cone_separation):
        with pytest.raises(FoliationError, match="tangent"):
            stage(F, F)


# ---------------------------------------------------------------------------
# scaling solver

def test_scaling_solve_trivial_closed_inputs():
    a = one_form(UV, ex.ONE, Const(0.3))
    b = one_form(UV, Const(0.2), ex.ONE)
    sol = scaling_solve(a, b, n=32)
    assert sol.success
    assert sol.iterations == 0
    assert sol.residual < 1e-12
    assert sol.log_f.shape == sol.log_g.shape == (32, 32)
    assert np.max(np.abs(sol.log_f)) == 0.0
    assert np.max(np.abs(sol.log_g)) == 0.0
    assert sol.beta is None


def test_scaling_solve_cat_fiber_forms(cat):
    sigma = cat.fiber(0.0)
    sol = scaling_solve(restrict(cat.alpha_u, sigma), restrict(cat.alpha_s, sigma), n=32)
    assert sol.success and sol.iterations == 0
    assert np.max(np.abs(sol.log_f)) == 0.0
    assert np.max(np.abs(sol.log_g)) == 0.0
    assert sol.beta is None


def _assert_closed_by_beta(sol, a, b, n):
    # f a - g b is the reported constant beta at every sample
    assert sol.success and sol.iterations == 0
    assert sol.residual < 1e-12
    assert sol.beta is not None
    for log in (sol.log_f, sol.log_g):  # full grids, whatever shape the route worked at
        assert log.shape == (n, n) and log.flags.c_contiguous and log.flags.writeable
    f, g = np.exp(sol.log_f), np.exp(sol.log_g)
    for i, beta_i in enumerate(sol.beta):
        ai, bi = torus_samples(a.coeff((i,)), n), torus_samples(b.coeff((i,)), n)
        assert np.max(np.abs(f * ai - g * bi - beta_i)) < 1e-12
    assert abs(float(np.mean(sol.log_f))) < 1e-12  # the gauge


def _assert_recovers_the_1d_planted_scalings(sol, n):
    h = 0.3 * np.sin(2 * np.pi * np.arange(n) / n)
    f = np.exp(sol.log_f)
    target = np.exp(-h)[:, None] * np.ones((n, n))
    assert np.max(np.abs(f / f.mean() - target / target.mean())) < 1e-12


def test_scaling_solve_planted(planted_solution):
    sol, sol_time = planted_solution
    assert sol.success
    assert sol.residual < 1e-12
    assert sol_time < 60.0
    _assert_recovers_the_1d_planted_scalings(sol, 64)


def test_scaling_solve_iterations_flat_in_n():
    # the constant beta = -du + dv gives f = e^-h and g = 1 in closed form,
    # so every n takes 0 iterations
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    for n in (32, 64, 128):
        sol = scaling_solve(a, b, n=n)
        _assert_closed_by_beta(sol, a, b, n)
        _assert_recovers_the_1d_planted_scalings(sol, n)


def test_scaling_solve_iterations_on_the_2d_planted_problem():
    # the descent took 32, 37 and 140 iterations at n = 16, 32 and 64; the
    # constant beta = -du + dv gives the scalings in closed form
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u)*cos(2*pi*v))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    for n in (16, 32, 64):
        _assert_closed_by_beta(scaling_solve(a, b, n=n), a, b, n)


def _upsampled(x, m):
    # the trigonometric interpolant of n x n samples on the mn x mn grid; an
    # even n's Nyquist mode is split between +n/2 and -n/2
    for axis in (0, 1):
        n = x.shape[axis]
        X = np.fft.rfft(x, axis=axis)
        if n % 2 == 0:
            X[(slice(None),) * axis + (n // 2,)] *= 0.5
        x = m * np.fft.irfft(X, m * n, axis=axis)
    return x


def _full(e, n):
    return np.broadcast_to(torus_samples(e, n), (n, n))


def test_scaling_solve_descends_when_no_constant_beta_exists():
    # the convex beta iteration took 1, 1, 1 and 4, 5, 5 iterations at
    # n = 16, 32 and 64 on the two pairs; each bound is twice the largest
    for pair, bound in ((_no_beta_pair, 2), (_planted_no_beta_pair, 10)):
        a, b = pair()
        for n in (16, 32, 64):
            sol = scaling_solve(a, b, n=n)
            assert sol.success and sol.residual < 1e-11
            assert sol.beta is None
            assert 0 < sol.iterations <= bound
            # beta = f a - g b, interpolated on the 4x finer grid, keeps f and
            # g positive there
            f, g = np.exp(sol.log_f), np.exp(sol.log_g)
            beta = [f * _full(a.coeff((i,)), n) - g * _full(b.coeff((i,)), n) for i in (0, 1)]
            fine = [_upsampled(x, 4) for x in beta]
            for x, x_fine in zip(beta, fine):
                assert np.max(np.abs(x_fine[::4, ::4] - x)) < 1e-12
            a1, a2, b1, b2 = (_full(e.coeff((i,)), 4 * n) for e in (a, b) for i in (0, 1))
            D = a1 * b2 - a2 * b1
            assert np.min((fine[0] * b2 - fine[1] * b1) / D) > 0.0
            assert np.min((fine[0] * a2 - fine[1] * a1) / D) > 0.0


def test_scaling_solve_finds_no_beta_for_leaves_of_opposite_classes():
    a, b = _eight_band_forms()
    sol = scaling_solve(a, b, n=16)
    assert not sol.success and sol.iterations == 4000  # the cap
    assert sol.beta is None
    assert np.max(np.abs(sol.log_f)) == np.max(np.abs(sol.log_g)) == 0.0
    assert sol.residual > prelag._SCALING_TOL  # that of f = g = 1


@pytest.mark.parametrize("n", [3, 4, 6, 8, 16, 32])
def test_scaling_solve_gives_no_scalings_when_a_wedge_b_changes_sign(n):
    # a = du + sin(2 pi u) dv, b = du: a^b = -sin 2 pi u vanishes at u = 0,
    # and closedness forces the v-mean of f times sin 2 pi u to be constant
    # in u, hence 0, which no f > 0 allows
    a = one_form(UV, ex.ONE, parse_expr("sin(2*pi*u)"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    sol = scaling_solve(a, b, n=n)
    assert not sol.success and sol.iterations == 0 and sol.beta is None
    assert sol.log_f.shape == (n, n)
    assert np.max(np.abs(sol.log_f)) == np.max(np.abs(sol.log_g)) == 0.0


def test_scaling_solve_closes_unequal_constant_scalings_by_formula():
    # alpha_u = (1 + 0.3 sin 2 pi x) dy and alpha_s = dx + (2 + 0.6 sin 2 pi x) dy
    # on the z = 0 fiber: 2a - b = -du is closed, though a - b is not; the
    # descent took 222 iterations at n = 64
    sigma = fiber_embedding(torus3(), 0.0)
    a = restrict(one_form(XYZ, ex.ZERO, parse_expr("1 + 0.3*sin(2*pi*x)"), ex.ZERO), sigma)
    b = restrict(one_form(XYZ, ex.ONE, parse_expr("2 + 0.6*sin(2*pi*x)"), ex.ZERO), sigma)
    sol = scaling_solve(a, b, n=64)
    _assert_closed_by_beta(sol, a, b, 64)


def test_scaling_solve_refuses_non_finite_inputs():
    a = one_form(UV, ex.ZERO, parse_expr("log(u - 2)"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    with pytest.raises(PreLagError, match=r"solver input a is not finite .* 16 x 16 grid"):
        scaling_solve(a, b, n=16)
    with pytest.raises(PreLagError, match=r"solver input b is not finite .* 8 x 8 grid"):
        scaling_solve(b, a, n=8)
    # the first point of the full grid, for a field of u, of v and of both
    for text, at in [("1/(u - 0.375)", "0.3750, 0.0000"), ("1/(v - 0.625)", "0.0000, 0.6250"),
                     ("1/(u*v - 0.125)", "0.2500, 0.5000")]:
        bad = one_form(UV, ex.ZERO, parse_expr(text))
        with pytest.raises(PreLagError, match=rf"input a is not finite at \(u, v\) = \({at}\)"):
            scaling_solve(bad, b, n=16)


@pytest.mark.parametrize("n", [0, 1, 2, -4, 2.5, np.int64(2), "16"])
def test_scaling_solve_refuses_a_grid_size_not_an_integer_of_at_least_3(n):
    # d(a - b) = 2 pi cos(2 pi u) du^dv is not 0, but every spectral
    # derivative vanishes on a 1 x 1 or 2 x 2 grid
    a = one_form(UV, ex.ONE, parse_expr("sin(2*pi*u)"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    for solve in (scaling_solve, closedness_objective):
        with pytest.raises(PreLagError, match=rf"grid size n = {re.escape(repr(n))} is not"):
            solve(a, b, n=n)


def test_scaling_solve_takes_a_numpy_integer_grid_size():
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    sol = scaling_solve(a, b, n=np.int64(32))
    _assert_closed_by_beta(sol, a, b, 32)
    assert sol.log_f.tobytes() == scaling_solve(a, b, n=32).log_f.tobytes()


@pytest.mark.parametrize("n", [15, 16, 64, 128])
def test_spectral_derivatives_of_samples_constant_along_their_axis(n):
    # the premise of solving at the kernel's shape: a column (n, 1) or row
    # (1, n) differentiates, bit for bit, as each column or row of its n x n
    # copy, and its derivative along the constant axis is 0
    def grid(x):
        return np.broadcast_to(x, (n, n))

    rng = np.random.default_rng(n)
    k = prelag._wavenumbers(n)
    col, row = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    full_col, full_row = grid(col).copy(), grid(row).copy()
    assert prelag._dv(col, k) == 0.0 and prelag._du(row, k) == 0.0
    assert prelag._du(full_col, k).tobytes() == grid(prelag._du(col, k)).tobytes()
    assert prelag._dv(full_row, k).tobytes() == grid(prelag._dv(row, k)).tobytes()
    # pocketfft leaves rounding noise in the modes of a constant whose length
    # has a prime factor above 3, where the shortcut gives the exact 0
    noise = 0.0 if n in (16, 64, 128) else 1e-13
    assert np.max(np.abs(prelag._dv(full_col, k))) <= noise
    assert np.max(np.abs(prelag._du(full_row, k))) <= noise


def _routes_1_and_2_on_the_full_grid(a, b, n):
    # the reference: the f = g = 1 check and the constant-beta route on n x n
    # copies of the samples, as the solver ran them before it kept their shape
    a1, a2, b1, b2 = (np.broadcast_to(c, (n, n))
                      for c in prelag._sample_form(a, n, "a") + prelag._sample_form(b, n, "b"))
    k = prelag._wavenumbers(n)

    def residual(phi, gamma):
        rho = prelag._curl(np.exp(phi), np.exp(gamma), a1, a2, b1, b2, k)
        return math.sqrt(math.exp(-2.0 * float(np.mean(phi))) * float(np.mean(rho * rho)))

    phi = gamma = np.zeros((n, n))
    beta, res = None, residual(phi, gamma)
    if res >= prelag._SCALING_TOL:
        beta, phi, gamma, _ = prelag._closed_beta(a1, a2, b1, b2, n)
        res = residual(phi, gamma)
    m = float(np.mean(phi))
    if beta is not None:
        beta = (math.exp(-m) * beta[0], math.exp(-m) * beta[1])
    return (phi - m).tobytes(), (gamma - m).tobytes(), res, beta


@pytest.mark.parametrize("a1, a2, b1, b2", [
    ("0", "exp(0.3*sin(2*pi*u))", "1", "0"),
    ("exp(0.2*cos(2*pi*v) + 0.1*sin(6*pi*v))", "0", "0", "1"),
    ("1 + 0.2*cos(2*pi*u)", "1", "1", "1"),
    ("0.3 + 0.2*sin(2*pi*u)", "exp(0.3*sin(2*pi*u) + 0.1*cos(6*pi*u))", "1", "0.1*cos(2*pi*u)"),
    ("0", "exp(0.3*sin(2*pi*u)*cos(2*pi*v))", "1", "0"),
])
def test_scaling_solve_at_the_kernel_shape_keeps_the_full_grid_bits(a1, a2, b1, b2):
    # the means are taken over the same n x n floats in the same order, and
    # a 2^a 3^b grid differentiates a constant to exactly 0 (pinned above)
    a = one_form(UV, parse_expr(a1), parse_expr(a2))
    b = one_form(UV, parse_expr(b1), parse_expr(b2))
    for n in (16, 48, 128, 256):  # at 256, np.mean of a broadcast view can miss its copy's bits
        sol = scaling_solve(a, b, n=n)
        got = (sol.log_f.tobytes(), sol.log_g.tobytes(), sol.residual, sol.beta)
        assert got == _routes_1_and_2_on_the_full_grid(a, b, n)


@pytest.mark.parametrize("dim, n", [(1, 32), (1, 64), (1, 128), (2, 16), (2, 32)])
def test_constant_beta_at_the_kernel_shape_matches_the_full_grid(dim, n):
    h = "0.3*sin(2*pi*u)" if dim == 1 else "0.3*sin(2*pi*u)*cos(2*pi*v)"
    a = one_form(UV, ex.ZERO, parse_expr(f"exp({h})"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    samples = prelag._sample_form(a, n, "a") + prelag._sample_form(b, n, "b")
    assert samples[1].shape == ((n, 1) if dim == 1 else (n, n)) and samples[2].shape == (1, 1)
    beta, log_f, log_g, _ = prelag._closed_beta(*samples, n)
    full = prelag._closed_beta(*(np.broadcast_to(c, (n, n)) for c in samples), n)
    assert beta == full[0]
    for log, log_full in ((log_f, full[1]), (log_g, full[2])):
        assert np.broadcast_to(log, (n, n)).tobytes() == log_full.tobytes()


def test_adjoint_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    a = one_form(UV, parse_expr("0.4*cos(2*pi*v)"), parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, parse_expr("0.2*sin(2*pi*u)"))
    n = 16
    objective = closedness_objective(a, b, n)
    phi = 0.1 * rng.standard_normal((n, n))
    gamma = 0.1 * rng.standard_normal((n, n))
    _, g_phi, g_gamma = objective(phi, gamma)
    h = 1e-5
    for _ in range(20):
        which = rng.integers(2)
        i, j = rng.integers(n), rng.integers(n)
        base = phi if which == 0 else gamma
        grad = g_phi if which == 0 else g_gamma
        base[i, j] += h
        J_hi = objective(phi, gamma)[0]
        base[i, j] -= 2 * h
        J_lo = objective(phi, gamma)[0]
        base[i, j] += h
        fd = (J_hi - J_lo) / (2 * h)
        assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-12)


def test_beta_penalty_gradient_matches_finite_differences():
    # the convex objective in beta = c + dh, on the unit normals of the
    # planted pair, at a point where some normals are cleared and some not
    rng = np.random.default_rng(12)
    n = 16
    a1, a2, b1, b2 = (_full(e.coeff((i,)), n) for e in _planted_no_beta_pair() for i in (0, 1))
    s = np.sign(a1[0, 0] * b2[0, 0] - a2[0, 0] * b1[0, 0])
    ra, rb = np.hypot(a1, a2), np.hypot(b1, b2)
    N = s * np.array([[b2 / rb, a2 / ra], [-b1 / rb, -a1 / ra]])
    k = prelag._wavenumbers(n)
    c = np.array([0.6, -0.2])
    h = 0.05 * rng.standard_normal((n, n))
    _, g_c, g_h, _ = prelag._beta_penalty(c, h, N, k)
    step = 1e-6

    def central(x, idx):
        x[idx] += step
        hi = prelag._beta_penalty(c, h, N, k)[0]
        x[idx] -= 2 * step
        lo = prelag._beta_penalty(c, h, N, k)[0]
        x[idx] += step
        return (hi - lo) / (2 * step)

    for i in (0, 1):
        assert central(c, i) == pytest.approx(g_c[i], rel=1e-6, abs=1e-12)
    for _ in range(20):
        idx = tuple(rng.integers(n, size=2))
        assert central(h, idx) == pytest.approx(g_h[idx], rel=1e-5, abs=1e-10)


# ---------------------------------------------------------------------------
# certificate pipeline

def test_certificate_cat_fiber(cat):
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0))
    assert rep.outcome == "certificate"
    assert rep.obstruction.verdict == "passes_obstruction"
    assert rep.parallel_verdict == "not_parallel"
    assert rep.cone_pair is not None
    assert rep.scaling_residual == 0.0  # f = g = 1 closes a - b
    assert rep.extension_u.margin > 0 and rep.extension_s.margin > 0
    assert rep.final_residual < 1e-9
    assert rep.final_al.verdict == "anosov_liouville"
    # the fiber restriction is constant, so it is its own target: the
    # pair is left as it is, and f_0 is exactly 0
    assert rep.c1_distance == 0.0 and rep.pair == cat.standard_pair(10.0)
    assert rep.to_dict()["scale_C"] == 10.0
    assert rep.final_al.f_zero.min == rep.final_al.f_zero.max == 0.0
    # the product of the two expansion densities is scale invariant
    product = rep.final_al.f_plus.min * rep.final_al.f_minus.min
    assert product == pytest.approx(4.0, rel=5e-2)


def test_certificate_builds_one_collar_extension_per_rate(cat):
    # both rates of a suspension model are 1 at every fiber, so the two
    # extensions are one object, shared with other matrices and heights
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0))
    assert rep.extension_u is rep.extension_s
    other = suspension_model(((3, 1), (2, 1)))
    again = pre_lagrangian_certificate(other, other.fiber(0.2))
    assert again.outcome == "certificate"
    assert again.extension_u is again.extension_s is rep.extension_u


def test_certificate_restricts_each_form_once(cat, monkeypatch):
    # alpha_u, alpha_s and the standard pair's sum: the fiber's restricted
    # sum is its own target, so it also gives the final residual
    calls = []

    def counted(omega, sigma):
        calls.append(omega)
        return restrict(omega, sigma)

    for name, mod in list(sys.modules.items()):
        if name == "allab" or name.startswith("allab."):
            for k, v in list(vars(mod).items()):
                if v is restrict:
                    monkeypatch.setattr(mod, k, counted)
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0))
    assert rep.outcome == "certificate"
    assert len(calls) == 3


def test_collar_extension_refuses_a_negative_rate_on_every_call():
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ContactError, match="expansion rate r must be positive"):
            prelag._collar_extension(ex.const(-1.0))


def test_certificate_scale_invariance(cat):
    # the pipeline rebuilds the pair at C = 10; f_+ f_- is that of C = 1
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0))
    assert rep.outcome == "certificate"
    unscaled = al_check(cat.standard_pair(), n=prelag.AL_GRID)
    product = rep.final_al.f_plus.min * rep.final_al.f_minus.min
    assert product == pytest.approx(unscaled.f_plus.min * unscaled.f_minus.min, rel=1e-12)


def test_certificate_obstructed_foliation_data():
    rep = pre_lagrangian_certificate(foliations=library.franks_williams_pair())
    assert rep.outcome == "not_attempted"
    assert rep.obstruction.verdict == "obstructed"
    assert rep.pair is None


def test_certificate_parallel_leaves_foliation_data():
    rep = pre_lagrangian_certificate(foliations=library.eight_band_pair())
    assert rep.outcome == "failed"
    assert rep.obstruction.verdict == "passes_obstruction"
    assert any("parallel compact leaves" in d for d in rep.diagnostics)


def test_certificate_foliation_only_clean_pair():
    from allab.foliation import constant_slope

    GOLD = (math.sqrt(5.0) - 1.0) / 2.0
    rep = pre_lagrangian_certificate(
        foliations=(constant_slope(GOLD), constant_slope(-1.0 / GOLD))
    )
    assert rep.outcome == "not_attempted"
    assert any("foliation data only" in d for d in rep.diagnostics)


def _no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate pipeline ran the grid solver")

    monkeypatch.setattr(prelag, "scaling_solve", refuse)


def test_certificate_stops_before_the_collar_when_a_minus_b_is_not_closed(monkeypatch):
    # on the z = 0 fiber, a = (1 + 0.1 sin 2 pi v) du and b = dv, so
    # d(a - b) = -0.2 pi cos(2 pi v) du^dv: f = g = 1 leaves 0.2 pi
    wavy = FlowModel(
        gluing=torus3(),
        X=(ex.ZERO, ex.ZERO, ex.ONE),
        alpha_u=one_form(XYZ, parse_expr("1 + 0.1*sin(2*pi*y)"), ex.ZERO, ex.ZERO),
        alpha_s=one_form(XYZ, ex.ZERO, ex.ONE, ex.ZERO),
        r_u=ex.ONE,
        r_s=Const(-1.0),
    )
    _no_solver(monkeypatch)
    rep = pre_lagrangian_certificate(wavy, wavy.fiber(0.0))
    assert rep.obstruction.verdict == "passes_obstruction"
    assert rep.parallel_verdict == "not_parallel"
    assert rep.outcome == "failed"
    assert rep.scaling_residual == pytest.approx(0.2 * math.pi, rel=1e-12)
    assert rep.extension_u is None and rep.extension_s is None
    assert rep.diagnostics == (
        "f = g = 1 leaves max |d(a - b)| = 6.28e-01, not below 1.00e-06: "
        "no other scalings are tried",
    )


def _rippled(eps):
    # alpha_u = e^z (1 + eps sin 2 pi y) dx and alpha_s = e^-z (eps sin 2 pi y dx - dy):
    # the standard pair's sum restricts to the z = 0 fiber as a form that is
    # not constant, so the collar perturbation changes the pair
    return FlowModel(
        gluing=torus3(),
        X=(ex.ZERO, ex.ZERO, ex.ONE),
        alpha_u=one_form(XYZ, parse_expr(f"exp(z)*(1 + {eps}*sin(2*pi*y))"), ex.ZERO, ex.ZERO),
        alpha_s=one_form(XYZ, parse_expr(f"exp(-z)*{eps}*sin(2*pi*y)"), parse_expr("-exp(-z)"),
                         ex.ZERO),
        r_u=ex.ONE,
        r_s=Const(-1.0),
    )


@pytest.mark.parametrize("eps, warnings", [
    (0.01, ()),
    (0.05, ("perturbation C1 norm 3.142e-02 exceeds the smallness threshold 1.0e-02",)),
])
def test_certificate_perturbs_a_pair_whose_fiber_restriction_is_not_constant(eps, warnings):
    model = _rippled(eps)
    assert model.validate()
    rep = pre_lagrangian_certificate(model, model.fiber(0.0))
    assert rep.outcome == "certificate"
    assert rep.pair != model.standard_pair(prelag._SCALE_C)
    assert rep.c1_distance == pytest.approx(0.2 * math.pi * eps, rel=1e-12)
    assert rep.final_residual == 0.0
    assert rep.final_al.verdict == "anosov_liouville"
    assert rep.diagnostics == warnings


@pytest.mark.parametrize("scale", [2.0, 0.0], ids=["parallel", "zero"])
def test_certificate_refuses_a_torus_with_dependent_directions(cat, scale):
    # refused where the torus is made, before any stage samples it
    fiber = cat.fiber(0.0)
    with pytest.raises(GeomError, match="embedding directions are linearly dependent"):
        pre_lagrangian_certificate(
            cat, TorusEmbedding(fiber.base, fiber.e1, tuple(scale * c for c in fiber.e1)))


def test_certificate_report_serializes(cat, monkeypatch):
    _no_solver(monkeypatch)
    d = pre_lagrangian_certificate(cat, cat.fiber(0.0)).to_dict()
    assert d["outcome"] == "certificate"
    assert d["obstruction"]["verdict"] == "passes_obstruction"
    assert d["scaling"] == {"residual": 0.0, "log_f": 0.0, "log_g": 0.0}
    assert isinstance(d["final_residual"], float)


def test_certificate_requires_input():
    with pytest.raises(PreLagError):
        pre_lagrangian_certificate()


# ---------------------------------------------------------------------------
# graph criterion

def test_graph_lagrangian_fiber_zero_function(cat):
    res = check_graph_lagrangian(cat.standard_pair(), cat.fiber(0.0), ex.ZERO)
    assert isinstance(res, GraphCheck)
    assert res.ok
    assert res.residual < 1e-12


def test_graph_lagrangian_constant_function(cat):
    res = check_graph_lagrangian(cat.standard_pair(), cat.fiber(0.0), Const(0.7))
    assert res == GraphCheck(ok=True, residual=0.0)


@pytest.mark.parametrize(
    "f",
    [Const(math.nan), Const(math.inf), Const(1000.0), "1000 + 0*u", "log(0*u)"],
    ids=["nan", "inf", "exp-overflow", "1000+0*u", "log(0*u)"],
)
def test_graph_lagrangian_refuses_a_form_that_is_not_finite(cat, f):
    # the exact derivative of a NaN or infinite constant is 0: the check
    # must read the coefficients themselves, not only their curl
    f = parse_expr(f) if isinstance(f, str) else f
    res = check_graph_lagrangian(cat.standard_pair(), cat.fiber(0.0), f)
    assert res == GraphCheck(ok=False, residual=math.inf)


def test_graph_lagrangian_nonconstant_function_fails(cat):
    res = check_graph_lagrangian(
        cat.standard_pair(), cat.fiber(0.0), parse_expr("sin(2*pi*u)")
    )
    assert not res.ok
    assert res.residual > 1e-3


def test_graph_lagrangian_rejects_failing_pair(cat):
    from allab.contact import FormPair

    plus = one_form(XYZ, ex.ONE, ex.ONE, ex.ZERO)
    minus = one_form(XYZ, ex.ONE, Const(-1.0), ex.ZERO)
    with pytest.raises(PreLagError):
        check_graph_lagrangian(FormPair(plus, minus), cat.fiber(0.0), ex.ZERO)


def test_graph_instance_implies_obstruction_passes(cat):
    # necessity: whenever the graph criterion holds on a fiber, the winding
    # obstruction must be trivial for the induced foliation pair
    res = check_graph_lagrangian(cat.standard_pair(), cat.fiber(0.0), ex.ZERO)
    assert res.ok
    F_ws, F_wu = weak_foliations_on_torus(cat, cat.fiber(0.0))
    assert obstruction_test(F_ws, F_wu).verdict == "passes_obstruction"
