import math
import time

import numpy as np
import pytest

from allab import expr as ex
from allab import foliation as fol
from allab import library
from allab.anosov import suspension_model, weak_foliations_on_torus
from allab.expr import Const, compile_field, parse_expr
from allab.foliation import FoliationError, cone_separation, parallel_compact_leaves
from allab.geom import UV, XYZ, one_form
from allab.prelag import (
    GraphCheck,
    PreLagError,
    PreLagReport,
    ScalingSolution,
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
    sol = scaling_solve(a, b, n=64, tol=1e-6)
    sol_time = time.monotonic() - t0
    return sol, sol_time


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
    samples = fol.torus_samples

    def recorded(e, n, offset=0.0):
        offsets.append(offset)
        return samples(e, n, offset)

    monkeypatch.setattr(fol, "torus_samples", recorded)
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
    assert sol.residual_history[0] < 1e-12
    assert np.max(np.abs(sol.log_f)) == 0.0
    assert np.max(np.abs(sol.log_g)) == 0.0


def test_scaling_solve_cat_fiber_forms(cat):
    from allab.geom import restrict

    sigma = cat.fiber(0.0)
    sol = scaling_solve(restrict(cat.alpha_u, sigma), restrict(cat.alpha_s, sigma), n=32)
    assert sol.success and sol.iterations == 0


def test_scaling_solve_planted(planted_solution):
    sol, sol_time = planted_solution
    assert sol.success
    assert sol.residual < 1e-6
    assert sol_time < 60.0
    h = 0.3 * np.sin(2 * np.pi * np.arange(64) / 64.0)
    f = np.exp(sol.log_f)
    target = np.exp(-h)[:, None] * np.ones((64, 64))
    ratio = f / f.mean()
    target_ratio = target / target.mean()
    assert np.max(np.abs(ratio - target_ratio)) < 1e-3


def test_scaling_solve_history_non_increasing(planted_solution):
    sol, _ = planted_solution
    hist = np.array(sol.residual_history)
    assert np.all(np.diff(hist) <= 1e-15)
    assert len(hist) == sol.iterations + 1


def test_scaling_solve_iterations_flat_in_n():
    # H^1 descent: the grid's stiff high modes do not slow the iteration
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    for n in (32, 64, 128):
        sol = scaling_solve(a, b, n=n, tol=1e-6)
        assert sol.success
        assert sol.iterations <= 20
    h = 0.3 * np.sin(2 * np.pi * np.arange(128) / 128.0)
    ratio = np.exp(sol.log_f) / np.exp(sol.log_f).mean()
    target = np.exp(-h)[:, None] * np.ones((128, 128))
    assert np.max(np.abs(ratio - target / target.mean())) < 1e-3


def test_scaling_solve_iterations_on_the_2d_planted_problem():
    # not flat in 2-D: 32, 37 and 140 iterations at n = 16, 32 and 64 when
    # measured; each bound is about 1.25 times that, so a regression shows
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u)*cos(2*pi*v))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    for n, bound in ((16, 40), (32, 46), (64, 175)):
        sol = scaling_solve(a, b, n=n, tol=1e-6)
        assert sol.success
        assert sol.iterations <= bound


def test_scaling_interpolant_matches_grid_residual(planted_solution):
    sol, _ = planted_solution
    assert abs(sol.interpolant_residual - sol.residual) < 1e-8


def test_scaling_interpolant_of_a_2d_problem():
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u)*cos(2*pi*v))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    sol = scaling_solve(a, b, n=32, tol=1e-6)
    assert sol.success
    assert abs(sol.interpolant_residual - sol.residual) < 1e-8


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


# ---------------------------------------------------------------------------
# certificate pipeline

def test_certificate_cat_fiber(cat):
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0))
    assert rep.outcome == "certificate"
    assert rep.obstruction.verdict == "passes_obstruction"
    assert rep.parallel_verdict == "not_parallel"
    assert rep.cone_pair is not None
    assert rep.scaling.success and rep.scaling.iterations == 0
    assert rep.extension_u.margin > 0 and rep.extension_s.margin > 0
    assert rep.final_residual < 1e-9
    assert rep.final_al.verdict == "anosov_liouville"
    # the product of the two expansion densities is scale invariant
    product = rep.final_al.f_plus.min * rep.final_al.f_minus.min
    assert product == pytest.approx(4.0, rel=5e-2)


def test_certificate_scale_invariance(cat):
    sigma = cat.fiber(0.0)
    for C in (1.0, 2.0, 10.0):
        rep = pre_lagrangian_certificate(cat, sigma, scale_C=C, solver_n=32)
        assert rep.outcome == "certificate"
        assert rep.obstruction.verdict == "passes_obstruction"
        assert rep.parallel_verdict == "not_parallel"
        product = rep.final_al.f_plus.min * rep.final_al.f_minus.min
        assert product == pytest.approx(4.0, rel=5e-2)


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


def test_certificate_report_serializes(cat):
    rep = pre_lagrangian_certificate(cat, cat.fiber(0.0), solver_n=32)
    d = rep.to_dict()
    assert d["outcome"] == "certificate"
    assert d["obstruction"]["verdict"] == "passes_obstruction"
    assert isinstance(d["final_residual"], float)


def test_report_carries_a_decimated_residual_history():
    def reported(m):
        hist = tuple(1.0 / np.arange(1, m + 1))
        zero = np.zeros((8, 8))
        sol = ScalingSolution(8, zero, zero, hist[-1], hist, m - 1, False, hist[-1])
        return hist, PreLagReport("failed", (), scaling=sol).to_dict()["scaling"]["residual_history"]

    hist, d = reported(32)
    assert d == list(hist)
    for m in (33, 100, 4001):
        hist, d = reported(m)
        assert len(d) == 32 and d[0] == hist[0] and d[-1] == hist[-1]
        assert np.all(np.diff(d) < 0)  # distinct entries of the history, in order
        assert set(d) <= set(hist)


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
    assert res.ok


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
