"""End-to-end acceptance checks.  Each test prints a single pass/fail line
for its criterion; run with `pytest -s tests/test_acceptance.py` to see the
summary lines.
"""

import math
import random
import time

import numpy as np
import pytest

from allab import expr as ex
from allab import library
from allab.anosov import estimate_splitting, reeb_field_numeric, suspension_model
from allab.cli import run as cli_run
from allab.config import load_config
from allab.contact import (
    FormPair,
    al_check,
    convex_combination,
    extend_scaling,
    liouville_direct_check,
)
from allab.expr import Const, compile_field, parse_expr
from allab.foliation import (
    Foliation2,
    Transversal,
    TransversalError,
    ReturnMap,
    constant_slope,
    reeb_annuli,
    return_map,
    rotation_number,
    winding,
)
from allab.geom import UV, XYZ, one_form
from allab.prelag import check_graph_lagrangian, closedness_objective, scaling_solve

import os

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(scope="module")
def cat():
    return suspension_model(((2, 1), (1, 1)))


def _verdict(num, name, ok):
    print(f"\ncriterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_expansion_densities(cat):
    t0 = time.monotonic()
    rep = al_check(cat.standard_pair(), n=48)
    elapsed = time.monotonic() - t0
    ok = (
        rep.verdict == "anosov_liouville"
        and abs(rep.f_plus.min - 2.0) < 1e-9
        and abs(rep.f_plus.max - 2.0) < 1e-9
        and abs(rep.f_minus.min - 2.0) < 1e-9
        and abs(rep.f_minus.max - 2.0) < 1e-9
        and abs(rep.f_zero.max) < 1e-9
        and elapsed < 30.0
    )
    _verdict(1, "expansion densities on 48^3 grid", ok)


def test_criterion_2_direct_check_agreement(cat):
    p = cat.standard_pair()
    ok = liouville_direct_check(p, n=10).passed
    flipped = FormPair(p.plus, -p.minus, p.gluing)
    ok = ok and liouville_direct_check(flipped, n=10).passed
    rng = random.Random(77)
    for _ in range(20):
        amp = rng.uniform(0.0, 1e-2)
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        wob = parse_expr(f"{amp}*sin(2*pi*{k1}*x)*cos(2*pi*{k2}*y)")
        pair = FormPair(
            p.plus + one_form(XYZ, wob, ex.ZERO, ex.ZERO),
            p.minus + one_form(XYZ, ex.ZERO, wob, ex.ZERO),
            p.gluing,
        )
        direct = liouville_direct_check(pair, n=8)
        grid = al_check(pair, n=8)
        ok = ok and direct.passed == (grid.verdict == "anosov_liouville")
    _verdict(2, "direct Liouville check agrees with the grid check", ok)


def test_criterion_3_fiber_graph_instance(cat):
    res = check_graph_lagrangian(cat.standard_pair(), cat.fiber(0.0), ex.ZERO)
    reeb = reeb_field_numeric(cat.alpha_plus)
    vals = reeb(cat.gluing.sample_points(4))
    tangency = float(np.max(np.abs(vals[2])))
    ok = res.ok and res.residual < 1e-12 and tangency < 1e-9
    _verdict(3, "fiber graph instance and Reeb tangency", ok)


def test_criterion_4_pipeline_verdicts(tmp_path):
    code0, rep0 = cli_run(
        load_config(os.path.join(CONFIGS, "cat-map.cfg")),
        "pre-lagrangian",
        str(tmp_path / "a"),
    )
    code1, rep1 = cli_run(
        load_config(os.path.join(CONFIGS, "franks-williams.cfg")),
        "pre-lagrangian",
        str(tmp_path / "b"),
    )
    code2, rep2 = cli_run(
        load_config(os.path.join(CONFIGS, "eight-band.cfg")),
        "pre-lagrangian",
        str(tmp_path / "c"),
    )
    p0 = rep0["stages"]["pre-lagrangian"]["prelag"]
    p1 = rep1["stages"]["pre-lagrangian"]["prelag"]
    p2 = rep2["stages"]["pre-lagrangian"]["prelag"]
    ok = (
        (code0, code1, code2) == (0, 2, 2)
        and p0["outcome"] == "certificate"
        and p0["obstruction"]["winding_ws"] == [0, 0]
        and p1["obstruction"]["verdict"] == "obstructed"
        and p2["obstruction"]["verdict"] == "passes_obstruction"
        and p2["outcome"] == "failed"
        and any("parallel compact leaves" in d for d in p2["diagnostics"])
    )
    _verdict(4, "obstruction pipeline verdicts and exit codes", ok)


def test_criterion_5_winding_suite():
    rng = random.Random(5)
    ok = True
    for _ in range(10):
        k = rng.randint(1, 3)
        amp = rng.uniform(0.2, 1.5)
        c = parse_expr(f"{amp}*sin(2*pi*{k}*u)")
        F = Foliation2.from_form(one_form(UV, ex.neg(c), ex.ONE))
        ok = ok and F.closed_form and winding(F) == (0, 0)
    for _ in range(10):
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        theta = f"2*pi*({p}*u + {q}*v)"
        G = Foliation2(parse_expr(f"cos({theta})"), parse_expr(f"sin({theta})"))
        ok = ok and winding(G) == (p, q)
    _verdict(5, "winding of closed-form and planted-degree foliations", ok)


def test_criterion_6_foliation_dichotomy():
    F = library.two_reeb_band()
    ok = len(reeb_annuli(F)) == 2
    for axis in ("u", "v"):
        try:
            return_map(F, Transversal(axis, 0.25))
            ok = False
        except TransversalError:
            pass
    rng = random.Random(6)
    for _ in range(10):
        k = rng.randint(1, 2)
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(0.1, 0.6)
        V2 = parse_expr(f"{a} + {b}*sin(2*pi*{k}*u)*cos(2*pi*v)")
        G = Foliation2(ex.ONE, V2)
        R = return_map(G, Transversal("u", 0.0))
        ok = ok and R.degree_check()
        ok = ok and reeb_annuli(G) == []
    _verdict(6, "Reeb-band versus suspension dichotomy", ok)


def test_criterion_7_rotation_numbers():
    ok = True
    for rho in (0.0, 0.25, (math.sqrt(5.0) - 1.0) / 2.0):
        R = return_map(constant_slope(rho), Transversal("u", 0.0))
        got, err = rotation_number(R, 10000)
        ok = ok and abs((got - rho + 0.5) % 1.0 - 0.5) < 1e-4
    ts = np.arange(2048) / 2048.0
    fine = np.linspace(-1.0, 2.0, 3 * 8192 + 1)
    base = 0.25
    for h in (
        lambda t: t + 0.10 * np.sin(2 * np.pi * t),
        lambda t: t - 0.07 * np.sin(4 * np.pi * t),
    ):
        conj = np.interp(h(ts) + base, h(fine), fine)
        R = ReturnMap.from_lift_samples(ts, conj)
        got, _ = rotation_number(R, 10000)
        ok = ok and abs(got - base) < 2e-4
    _verdict(7, "rotation number recovery and conjugation invariance", ok)


def test_criterion_8_scaling_solver():
    a = one_form(UV, ex.ZERO, parse_expr("exp(0.3*sin(2*pi*u))"))
    b = one_form(UV, ex.ONE, ex.ZERO)
    t0 = time.monotonic()
    sol = scaling_solve(a, b, n=64)
    elapsed = time.monotonic() - t0
    h = 0.3 * np.sin(2 * np.pi * np.arange(64) / 64.0)
    f = np.exp(sol.log_f)
    target = np.exp(-h)[:, None] * np.ones((64, 64))
    recovery = float(np.max(np.abs(f / f.mean() - target / target.mean())))
    # adjoint gradient against central differences
    rng = np.random.default_rng(8)
    objective = closedness_objective(a, b, 16)
    phi = 0.1 * rng.standard_normal((16, 16))
    gamma = 0.1 * rng.standard_normal((16, 16))
    _, g_phi, g_gamma = objective(phi, gamma)
    grad_ok = True
    step = 1e-5
    for _ in range(20):
        which = rng.integers(2)
        i, j = rng.integers(16), rng.integers(16)
        base, grad = (phi, g_phi) if which == 0 else (gamma, g_gamma)
        base[i, j] += step
        hi = objective(phi, gamma)[0]
        base[i, j] -= 2 * step
        lo = objective(phi, gamma)[0]
        base[i, j] += step
        fd = (hi - lo) / (2 * step)
        grad_ok = grad_ok and abs(fd - grad[i, j]) <= 1e-5 * max(abs(fd), 1e-12)
    ok = sol.success and sol.residual < 1e-6 and elapsed < 60.0 and recovery < 1e-3 and grad_ok
    _verdict(8, "planted scaling solve and adjoint gradient", ok)


def test_criterion_9_collar_extension():
    f1 = parse_expr("1 + 0.25*sin(2*pi*u)*cos(2*pi*v)")
    ext1 = extend_scaling(f1, ex.ONE, delta=0.2, eps=0.1, c=0.5, C=2.0)
    lam = math.exp(0.05)
    ext2 = extend_scaling(
        ex.ONE, Const(0.5), delta=0.3, eps=0.1, c=0.5 / lam, C=2.0 * lam
    )
    t = np.arange(16) / 16.0
    U, V = np.meshgrid(t, t, indexing="ij")
    ok = True
    for f, extn in ((f1, ext1), (ex.ONE, ext2)):
        # min of d/dz log(mu) + r on 16 x 16 (u, v) by 96 z in [-2 delta, 2 delta]
        zs = np.linspace(-2 * extn.delta, 2 * extn.delta, 96)
        rate = ex.compile_kernel(ex.add(extn.dz_log_mu, extn.r), ("u", "v", "z"))
        margin = np.min(rate(*np.ix_(t, t, zs)))
        on_torus = extn.mu_fn()(U, V, np.zeros_like(U))
        f_vals = compile_field(f, UV)(U, V) + np.zeros_like(U)
        ok = ok and margin > 0.0 and np.array_equal(on_torus, f_vals)
    _verdict(9, "collar extension margins and exact torus restriction", ok)


def test_criterion_10_convex_combinations(cat):
    p = cat.standard_pair()
    q = cat.standard_pair(C=2.0)
    ok = True
    for t in np.linspace(0.0, 1.0, 11):
        _, rep = convex_combination(p, q, float(t), n=6)
        ok = ok and rep.verdict == "anosov_liouville"
    _verdict(10, "convex combinations stay Anosov-Liouville", ok)


def test_criterion_11_splitting_estimator(cat):
    est = estimate_splitting(cat)
    slope_ok = abs(est.slope - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-6
    factor_ok = abs(est.expansion_factor - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-9
    _verdict(11, "finite-time splitting estimator", slope_ok and factor_ok)
