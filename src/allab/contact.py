"""Deciding Anosov-Liouville-ness of 1-form pairs, perturbing pairs along a
transverse torus, extending positive scalings off the torus, and convex
combinations of standard pairs.

The two verdict routes are kept independent on purpose: ``al_check`` uses the
pointwise characterization through the contact volumes f_+, f_-, f_0, while
``liouville_direct_check`` builds e^s a_+ + e^-s a_- on the s-cylinder and
tests d(lambda)^2 directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import AllabError
from . import expr as ex
from .expr import Expr, ZERO, ONE, compile_field, compile_kernel, diff
from .geom import (
    DifferentialForm,
    Gluing3,
    Grid3,
    SXYZ,
    TorusEmbedding,
    UV,
    XYZ,
    curl_residual,
    exterior_derivative,
    grid_argmin,
    pullback,
    restrict,
    torus3,
    torus_samples,
    volume_form,
    wedge,
)


class ContactError(AllabError):
    pass


class PerturbationError(ContactError):
    pass


@dataclass(frozen=True)
class FormPair:
    plus: DifferentialForm
    minus: DifferentialForm
    gluing: Gluing3 | None = None

    def __post_init__(self):
        if self.plus.coords != XYZ or self.minus.coords != XYZ:
            raise ContactError("pair forms must live over (x, y, z)")
        if self.plus.degree != 1 or self.minus.degree != 1:
            raise ContactError("pair forms must be 1-forms")

    def grid(self, n: int) -> Grid3:
        if self.gluing is not None:
            return self.gluing.sample_points(n)
        return torus3().sample_points(n, z_lo=0.0)


@dataclass(frozen=True)
class QuantityStats:
    min: float
    max: float
    argmin: tuple[float, float, float]

    def to_dict(self):
        return {"min": self.min, "max": self.max, "argmin": list(self.argmin)}


@dataclass(frozen=True)
class ALReport:
    grid_n: int
    f_plus: QuantityStats
    f_minus: QuantityStats
    f_zero: QuantityStats
    discriminant: QuantityStats  # 4 f_+ f_- - f_0^2
    verdict: str  # anosov_liouville | liouville_only | fail

    def to_dict(self):
        return {
            "grid_n": self.grid_n,
            "f_plus": self.f_plus.to_dict(),
            "f_minus": self.f_minus.to_dict(),
            "f_zero": self.f_zero.to_dict(),
            "discriminant": self.discriminant.to_dict(),
            "verdict": self.verdict,
        }


def _stats(values: np.ndarray, grid: Grid3) -> QuantityStats:
    low, at = grid_argmin(values, grid)
    return QuantityStats(low, float(np.max(values)), at)


def _coeff_values(form3: DifferentialForm, grid: Grid3) -> np.ndarray:
    """The top coefficient at the shape of the grid axes it varies along."""
    return np.asarray(compile_kernel(form3.coeff((0, 1, 2)), XYZ)(*grid), dtype=float)


@np.errstate(all="ignore")  # a domain error gives NaN, which fails the verdict
def al_check(
    pair: FormPair,
    vol: DifferentialForm | None = None,
    *,
    n: int = 48,
    points: Grid3 | None = None,
) -> ALReport:
    """Pointwise Anosov-Liouville test through the contact volumes.

    Writes a_+ ^ da_+ = f_+ dvol, a_- ^ da_- = -f_- dvol and
    d(a_- ^ a_+) = f_0 dvol, then aggregates extrema over the grid, or over
    ``points``, an (x, y, z) triple of broadcastable arrays.  Each density is
    evaluated at the shape of the variables it uses (a z-only density has n
    values, not n^3), and each argmin is the first point of the full (i, j, k)
    grid that attains the minimum, as over the broadcast values.
    """
    vol = vol if vol is not None else volume_form()
    pts = [np.asarray(c, dtype=float) for c in (points if points is not None else pair.grid(n))]
    vol_vals = _coeff_values(vol, pts)
    bad = np.abs(vol_vals) < 1e-300
    if np.any(bad):
        raise ContactError("volume form vanishes at a grid point")
    wp = wedge(pair.plus, exterior_derivative(pair.plus))
    wm = wedge(pair.minus, exterior_derivative(pair.minus))
    w0 = exterior_derivative(wedge(pair.minus, pair.plus))
    f_plus = _coeff_values(wp, pts) / vol_vals
    f_minus = -_coeff_values(wm, pts) / vol_vals
    f_zero = _coeff_values(w0, pts) / vol_vals
    # not f_zero**2: that calls pow on a constant's numpy scalar, off by an ulp at times
    disc = 4.0 * f_plus * f_minus - f_zero * f_zero
    tol = 1e-9
    if f_plus.min() > tol and f_minus.min() > tol and disc.min() > tol:
        verdict = "anosov_liouville"
    elif (
        f_plus.min() > tol
        and f_minus.min() > tol
        and np.min(f_zero + 2.0 * np.sqrt(f_plus * f_minus)) > tol
    ):
        verdict = "liouville_only"
    else:
        verdict = "fail"
    return ALReport(
        grid_n=n if points is None else np.broadcast(*pts).size,
        f_plus=_stats(f_plus, pts),
        f_minus=_stats(f_minus, pts),
        f_zero=_stats(f_zero, pts),
        discriminant=_stats(disc, pts),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# direct Liouville check on the s-cylinder

@dataclass(frozen=True)
class LiouvilleReport:
    min_value: float
    argmin: tuple[float, float, float, float]  # (s, x, y, z)
    passed: bool


@np.errstate(all="ignore")  # a domain error gives NaN, which fails the check
def liouville_direct_check(pair: FormPair, *, n: int = 16) -> LiouvilleReport:
    """Builds lambda = e^s a_+ + e^-s a_- and checks d(lambda)^2 > 0 against
    ds ^ dvol on the sampled cylinder, at 13 levels of s in [-3, 3]."""
    x, y, z = pair.grid(n)
    s = np.linspace(-3, 3, 13)[:, None, None, None]
    es = ex.func("exp", ex.var("s"))
    ems = ex.func("exp", ex.zneg(ex.var("s")))
    proj = {c: ex.var(c) for c in XYZ}  # (s, x, y, z) -> (x, y, z)
    plus, minus = (pullback(a, SXYZ, proj) for a in (pair.plus, pair.minus))
    lam = plus.scale(es) + minus.scale(ems)
    dlam = exterior_derivative(lam)
    top = wedge(dlam, dlam)
    vals = compile_kernel(top.coeff((0, 1, 2, 3)), SXYZ)(s, x, y, z)
    best, at = grid_argmin(vals / _coeff_values(volume_form(), (x, y, z)), (s, x, y, z))
    return LiouvilleReport(best, at, best > 0.0)


# ---------------------------------------------------------------------------
# perturbation supported in a collar around a transverse torus

@dataclass(frozen=True)
class PerturbResult:
    pair: FormPair
    changed: bool
    c1_norm: float
    restriction_residual: float
    al_report: ALReport | None
    warnings: tuple[str, ...] = ()


def _c1_norm(beta: DifferentialForm) -> float:
    return max(
        (float(np.max(np.abs(torus_samples(e, 64))))
         for c in beta.coeffs.values() for e in (c, diff(c, "u"), diff(c, "v"))),
        default=0.0,
    )


def quintic_bump(t: Expr) -> Expr:
    """C^2 polynomial bump: (1 - t^2)^3 clamped to [-1, 1], 1 at t = 0."""
    return ex.pow_(ex.func("pos", ex.sub(ONE, ex.mul(t, t))), ex.const(3.0))


@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def perturb_pair(
    pair: FormPair, beta_target: DifferentialForm, sigma: TorusEmbedding
) -> PerturbResult:
    """Adds the same collar-supported 1-form to both members of the pair so
    that the restricted sum becomes exactly ``beta_target`` on the torus;
    the collar has half-width 0.15 in z."""
    if beta_target.coords != UV or beta_target.degree != 1:
        raise ContactError("perturbation target must be a 1-form on the torus")
    # a constant has no curl, so the closedness check below passes NaN
    if not all(np.isfinite(torus_samples(c, 64)).all() for c in beta_target.coeffs.values()):
        raise PerturbationError("perturbation target has non-finite coefficients")
    res = curl_residual(beta_target)
    if not res < 1e-9:  # NaN refuses too
        raise PerturbationError(
            f"perturbation target is not closed (curl residual {res:.2e})"
        )
    restricted = restrict(pair.plus + pair.minus, sigma)
    half = ex.const(0.5)
    coeffs = {}
    for idx in ((0,), (1,)):
        cb, cr = beta_target.coeff(idx), restricted.coeff(idx)
        if cb == cr:
            continue
        coeffs[idx] = ex.zmul(half, ex.zsub(cb, cr))
    sigma_form = DifferentialForm(UV, 1, coeffs)
    if sigma_form.is_zero():
        return PerturbResult(pair, False, 0.0, 0.0, None)

    warnings = []
    c1 = _c1_norm(sigma_form)
    if c1 > 1e-2:
        warnings.append(
            f"perturbation C1 norm {c1:.3e} exceeds the smallness threshold 1.0e-02"
        )

    e1, e2 = np.array(sigma.e1), np.array(sigma.e2)
    if abs(e1[2]) > 1e-14 or abs(e2[2]) > 1e-14:
        raise ContactError("collar extension implemented for z-level tori only")
    Einv = np.linalg.inv(np.array([[e1[0], e2[0]], [e1[1], e2[1]]]))
    bx, by, bz = sigma.base
    x_off, y_off = ex.sub(ex.var("x"), ex.const(bx)), ex.sub(ex.var("y"), ex.const(by))
    u_of, v_of = (
        ex.zadd(ex.zmul(ex.const(a), x_off), ex.zmul(ex.const(b), y_off)) for a, b in Einv
    )
    bump = quintic_bump(ex.div(ex.sub(ex.var("z"), ex.const(bz)), ex.const(0.15)))
    ambient = pullback(sigma_form, XYZ, {"u": u_of, "v": v_of}).scale(bump)

    new_pair = FormPair(pair.plus + ambient, pair.minus + ambient, pair.gluing)
    # the restricted sum must hit the target exactly
    check = restrict(new_pair.plus + new_pair.minus, sigma) - beta_target
    resid = max(
        (float(np.max(np.abs(torus_samples(c, 32)))) for c in check.coeffs.values()),
        default=0.0,
    )
    if not resid <= 1e-12:  # NaN refuses too
        raise PerturbationError(
            f"restricted sum misses the target (residual {resid:.2e})"
        )
    report = al_check(new_pair, n=24)
    if report.verdict != "anosov_liouville":
        raise PerturbationError(
            "AL check failed after perturbation "
            f"(verdict {report.verdict}, min discriminant "
            f"{report.discriminant.min:.3e})"
        )
    return PerturbResult(new_pair, True, c1, resid, report, tuple(warnings))


# ---------------------------------------------------------------------------
# scaling extension off the torus (collar coordinates (u, v, z), X = d/dz)

def _smoothstep_integral(tau: Expr) -> Expr:
    """Antiderivative of the quintic smoothstep, clamped: 0 for tau <= 0,
    tau - 1/2 for tau >= 1, C^2 throughout."""
    c = ex.zsub(ex.func("pos", tau), ex.func("pos", ex.sub(tau, ONE)))
    c4 = ex.pow_(c, ex.const(4.0))
    poly = ex.mul(
        c4,
        ex.add(ex.sub(ex.mul(c, c), ex.mul(ex.const(3.0), c)), ex.const(2.5)),
    )
    return ex.zadd(poly, ex.func("pos", ex.sub(tau, ONE)))


@dataclass(frozen=True)
class ScalingExtension:
    """Positive scalar mu on the collar with mu = f on the torus, constant
    plateaus beyond +-delta, and d/dz log(mu) + r > 0 everywhere."""

    f: Expr
    r: Expr
    delta: float
    eps: float
    c_lo: float
    c_hi: float
    mu: Expr  # in variables (u, v, z)
    dz_log_mu: Expr

    @functools.cached_property
    def margin(self) -> float:
        """The positivity margin on the default grid, computed once."""
        return self.positivity_margin()

    def to_dict(self):
        return {
            "delta": self.delta,
            "eps": self.eps,
            "c_lo": self.c_lo,
            "c_hi": self.c_hi,
            "margin": self.margin,
        }

    def mu_fn(self):
        return compile_field(self.mu, ("u", "v", "z"))

    def positivity_margin(self, n_uv: int = 24, n_z: int = 64) -> float:
        a = np.arange(n_uv) / n_uv
        zs = np.linspace(-2 * self.delta, 2 * self.delta, n_z)
        fn = compile_kernel(ex.zadd(self.dz_log_mu, self.r), ("u", "v", "z"))
        return float(np.min(fn(*np.ix_(a, a, zs))))


@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def extend_scaling(
    f: Expr,
    r: Expr,
    delta: float,
    eps: float,
    c: float,
    C: float,
) -> ScalingExtension:
    """Extends a positive scaling f on the torus to the collar so that the
    logarithmic derivative along the flow stays above -r.

    Inner band: mu(p, z) = f(p) exp((1 - r(p)) z).  Outside, log-linear
    bridges reach the plateau constants C (above) and c (below); the slope
    kinks are replaced by quintic blends of width (delta - eps)/4 placed
    inside the bridges, so the inner formula and the plateaus are exact.
    Every check below is written so that a NaN fails it.
    """
    if not 0 < eps < delta:
        raise ContactError("collar radii must satisfy 0 < eps < delta")
    if not (0 < c < math.inf and 0 < C < math.inf):
        raise ContactError(f"plateau constants must be positive and finite (c = {c}, C = {C})")
    grid_n = 48
    f_vals, r_vals = torus_samples(f, grid_n), torus_samples(r, grid_n)
    if not f_vals.min() > 0:
        raise ContactError(f"scaling f must be positive on the torus (min {f_vals.min():.4g})")
    if not r_vals.min() > 0:
        raise ContactError(
            f"expansion rate r must be positive for the plateaus (min {r_vals.min():.4g})"
        )
    lam_hi = f_vals * np.exp((1.0 - r_vals) * eps)
    lam_lo = f_vals * np.exp(-(1.0 - r_vals) * eps)
    if not C > lam_hi.max():
        raise ContactError(
            f"upper plateau C = {C} must exceed max mu(., eps) = {lam_hi.max():.6g}"
        )
    if not c < lam_lo.min():
        raise ContactError(
            f"lower plateau c = {c} must be below min mu(., -eps) = {lam_lo.min():.6g}"
        )

    w = (delta - eps) / 4.0
    s_in = ex.sub(ONE, r)
    log_f = ex.func("log", f)
    # the quintic blends shorten the usable bridge: their linear asymptotes
    # meet at the effective radii eps + w/2 and delta - w/2, so the slopes
    # below make the plateaus land exactly on log C and log c
    eps_eff = eps + 0.5 * w
    denom = ex.const(delta - eps - w)
    s_hi = ex.div(
        ex.sub(
            ex.const(math.log(C)), ex.add(log_f, ex.mul(s_in, ex.const(eps_eff)))
        ),
        denom,
    )
    s_lo = ex.div(
        ex.sub(
            ex.sub(log_f, ex.mul(s_in, ex.const(eps_eff))), ex.const(math.log(c))
        ),
        denom,
    )
    s_hi_vals, s_lo_vals = torus_samples(s_hi, grid_n), torus_samples(s_lo, grid_n)
    if not (s_hi_vals.min() > 0 and s_lo_vals.min() > 0):
        raise ContactError(
            "plateau constants too close to the inner band for this collar "
            f"(bridge slopes {s_lo_vals.min():.4g}, {s_hi_vals.min():.4g})"
        )
    # slope-change junctions in increasing z: blend intervals sit inside the
    # bridges so the plateaus and the inner band stay exact
    junctions = [
        (-delta, s_lo),                     # 0 -> s_lo
        (-eps - w, ex.sub(s_in, s_lo)),     # s_lo -> 1 - r
        (eps, ex.sub(s_hi, s_in)),          # 1 - r -> s_hi
        (delta - w, ex.zneg(s_hi)),         # s_hi -> 0
    ]
    z = ex.var("z")
    S = ZERO
    for b, ds in junctions:
        tau_z = ex.div(ex.sub(z, ex.const(b)), ex.const(w))
        tau_0 = ex.div(ex.sub(ex.const(0.0), ex.const(b)), ex.const(w))
        ramp = ex.zsub(_smoothstep_integral(tau_z), _smoothstep_integral(tau_0))
        S = ex.zadd(S, ex.zmul(ds, ex.zmul(ex.const(w), ramp)))
    mu = ex.zmul(f, ex.func("exp", S))
    extension = ScalingExtension(
        f=f,
        r=r,
        delta=delta,
        eps=eps,
        c_lo=c,
        c_hi=C,
        mu=mu,
        dz_log_mu=diff(S, "z"),
    )
    if not extension.margin > 0:  # NaN refuses too
        raise ContactError(f"positivity margin {extension.margin:.3e} not positive")
    return extension


# ---------------------------------------------------------------------------
# convex combinations of standard pairs

def convex_combination(
    p: FormPair, q: FormPair, t: float, *, n: int = 24
) -> tuple[FormPair, ALReport]:
    if not 0.0 <= t <= 1.0:
        raise ContactError("t must lie in [0, 1]")
    if t == 0.0:
        return p, al_check(p, n=n)
    if t == 1.0:
        return q, al_check(q, n=n)
    s, u = ex.const(1.0 - t), ex.const(t)
    combo = FormPair(
        p.plus.scale(s) + q.plus.scale(u),
        p.minus.scale(s) + q.minus.scale(u),
        p.gluing,
    )
    return combo, al_check(combo, n=n)
