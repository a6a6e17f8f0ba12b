"""Deciding and constructing closed restricted combinations on a transverse
torus: the loop-winding obstruction, a grid solver for positive scalings
making f a - g b closed, and the end-to-end certificate pipeline that
rebuilds a form pair whose restricted sum is exactly closed.  The solver
tries f = g = 1, then the closed-form scalings of a closed 1-form beta: one
constant beta when it fits, else beta = c + dh from a convex iteration.  The
pipeline does not use the solver: it takes f = g = 1 when d(a - b) vanishes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import AllabError
from . import expr as ex
from .expr import Expr, substitute
from .anosov import FlowModel, weak_foliations_on_torus
from .contact import (
    ALReport,
    FormPair,
    PerturbationError,
    ScalingExtension,
    al_check,
    extend_scaling,
    perturb_pair,
)
from .foliation import (
    Foliation2,
    _check_transverse_pair,
    cone_separation,
    parallel_compact_leaves,
    winding,
)
from .geom import (
    DifferentialForm,
    TorusEmbedding,
    UV,
    curl_residual,
    restrict,
    torus_samples,
)


class PreLagError(AllabError):
    pass


# ---------------------------------------------------------------------------
# loop-winding obstruction

@dataclass(frozen=True)
class ObstructionResult:
    verdict: str  # obstructed | passes_obstruction
    winding_ws: tuple[int, int]
    winding_wu: tuple[int, int]

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "winding_ws": list(self.winding_ws),
            "winding_wu": list(self.winding_wu),
        }


def obstruction_test(F_ws: Foliation2, F_wu: Foliation2) -> ObstructionResult:
    """A closed restricted combination forces both direction fields to have
    trivial loop winding; the two transverse fields always agree on it."""
    _check_transverse_pair(F_ws, F_wu)
    w_ws = winding(F_ws)
    w_wu = winding(F_wu)
    if w_ws != w_wu:
        raise PreLagError(
            f"transverse foliations report different windings {w_ws} vs {w_wu}"
        )
    verdict = "passes_obstruction" if w_ws == (0, 0) else "obstructed"
    return ObstructionResult(verdict, w_ws, w_wu)


# ---------------------------------------------------------------------------
# grid solver for the closedness objective

def _wavenumbers(n: int) -> np.ndarray:
    """Angular wavenumbers of the n // 2 + 1 modes ``rfft`` keeps."""
    k = np.fft.rfftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[-1] = 0.0  # drop the unsigned Nyquist mode from derivatives
    return 2.0 * np.pi * k


def _du(F: np.ndarray, k: np.ndarray) -> np.ndarray:
    """d/du of grid samples; exactly 0 for one row, constant in u."""
    if F.shape[0] == 1:
        return 0.0
    return np.fft.irfft(1j * k[:, None] * np.fft.rfft(F, axis=0), F.shape[0], axis=0)


def _dv(F: np.ndarray, k: np.ndarray) -> np.ndarray:
    """d/dv of grid samples; exactly 0 for one column, constant in v."""
    if F.shape[1] == 1:
        return 0.0
    return np.fft.irfft(1j * k[None, :] * np.fft.rfft(F, axis=1), F.shape[1], axis=1)


@np.errstate(all="ignore")  # a domain error gives NaN, refused below
def _sample_form(a: DifferentialForm, n: int, name: str):
    """The (du, dv) coefficients of a on the n x n torus grid, each at its
    kernel's shape made 2-D; a non-finite one is named at its first point of
    that grid, which has index 0 on every broadcast axis.  On n < 3 every
    spectral derivative vanishes, so n is refused there."""
    if not (hasattr(n, "__index__") and operator.index(n) >= 3):
        raise PreLagError(f"the solver grid size n = {n!r} is not an integer of at least 3")
    if a.coords != UV or a.degree != 1:
        raise PreLagError("solver inputs must be 1-forms on (u, v)")
    c1, c2 = (np.atleast_2d(torus_samples(a.coeff(i), n)) for i in ((0,), (1,)))
    bad = ~(np.isfinite(c1) & np.isfinite(c2))
    if bad.any():
        i, j = np.argwhere(bad)[0] / n
        raise PreLagError(
            f"solver input {name} is not finite at (u, v) = ({i:.4f}, {j:.4f}) "
            f"on the {n} x {n} grid"
        )
    return c1, c2


def _curl(ef, eg, a1, a2, b1, b2, k) -> np.ndarray:
    """d(ef a - eg b) / du^dv on the grid, for a = a1 du + a2 dv and b alike."""
    return _du(ef * a2 - eg * b2, k) - _dv(ef * a1 - eg * b1, k)


def closedness_objective(a: DifferentialForm, b: DifferentialForm, n: int = 64):
    """Mean-square curl of e^phi a - e^gamma b on the n x n grid, with its
    adjoint gradient; derivatives are trigonometric.  ``scaling_solve`` no
    longer calls it: its scalings come from a closed beta."""
    a1, a2 = _sample_form(a, n, "a")
    b1, b2 = _sample_form(b, n, "b")
    k = _wavenumbers(n)

    def objective(phi: np.ndarray, gamma: np.ndarray):
        ef, eg = np.exp(phi), np.exp(gamma)
        rho = _curl(ef, eg, a1, a2, b1, b2, k)
        J = float(np.mean(rho * rho))
        # adjoint: the spectral derivative is antisymmetric
        w = 2.0 * rho / rho.size
        dw1 = _dv(w, k)
        dw2 = -_du(w, k)
        g_phi = ef * (a1 * dw1 + a2 * dw2)
        g_gamma = -eg * (b1 * dw1 + b2 * dw2)
        return J, g_phi, g_gamma

    return objective


@dataclass(frozen=True)
class ScalingSolution:
    n: int
    log_f: np.ndarray
    log_g: np.ndarray
    residual: float
    iterations: int
    success: bool
    # the constant 1-form e^log_f a - e^log_g b equals, as its (du, dv)
    # coefficients, when one constant beta gave the scalings
    beta: tuple[float, float] | None


# beta must clear the edge of every normal's half-plane by this angle
# (radians): f and g are then at least sin(_BETA_MARGIN) |beta| |b| / |a^b|
# and sin(_BETA_MARGIN) |beta| |a| / |a^b|, not positive by rounding
_BETA_MARGIN = 0.01

# the residual below which scaling_solve's scalings close f a - g b
_SCALING_TOL = 1e-6

# the beta iteration's penalty on each unit normal N is
# softplus(_SOFTPLUS_SLOPE (_BETA_TARGET - beta . N))
_SOFTPLUS_SLOPE = 8.0
_BETA_TARGET = 0.25


def _beta_penalty(c, h, N, k):
    """Mean penalty of beta = c + dh over the unit normals N, shape
    (2, fields, n, n) with the (du, dv) components first, its gradient in c
    and in h's entries, and the least beta . N - sin(_BETA_MARGIN) |beta|,
    positive once beta clears every normal.  beta . N is linear in (c, h),
    so the penalty is convex."""
    beta1, beta2 = c[0] + _du(h, k), c[1] + _dv(h, k)
    bn = beta1 * N[0] + beta2 * N[1]
    z = _SOFTPLUS_SLOPE * (_BETA_TARGET - bn)
    # dJ / d(beta . N): the logistic function, written without overflow
    w = (-0.5 * _SOFTPLUS_SLOPE / z.size) * (1.0 + np.tanh(0.5 * z))
    p1, p2 = np.sum(w * N[0], axis=0), np.sum(w * N[1], axis=0)
    clearance = float(np.min(bn - math.sin(_BETA_MARGIN) * np.hypot(beta1, beta2)))
    # adjoint: the spectral derivative is antisymmetric
    g_c, g_h = np.array([p1.sum(), p2.sum()]), -(_du(p1, k) + _dv(p2, k))
    return float(np.mean(np.logaddexp(0.0, z))), g_c, g_h, clearance


def _closed_beta(a1, a2, b1, b2, n):
    """A closed 1-form beta whose scalings f = (beta^b)/(a^b) and
    g = (beta^a)/(a^b) are positive at every sample, so f a - g b = beta:
    returns the constant beta = (c1, c2) or None, log f, log g (0 when a^b
    has no strict sign or no beta is found) and the iterations spent.

    With s the sign of a^b, f > 0 means beta . s (b2, -b1) > 0, and g > 0
    means beta . s (a2, -a1) > 0.  The first step tries a constant beta:
    all normals lie, with margin, in an open half-plane iff the largest gap
    between their sorted angles exceeds pi + 2 _BETA_MARGIN, and beta then
    points away from that gap's centre.  At the samples' kernel shapes each
    distinct normal is sorted once, which leaves every gap and beta the same
    floats; log f and log g keep those shapes, in 0 iterations.  Otherwise
    beta = c + dh, from that c and h = 0 on the n x n grid: the constraints
    are linear in (c, h), and ``_beta_penalty`` falls by H^1 gradient steps
    (Neuberger's Sobolev gradient) of Barzilai-Borwein length in the same
    metric, with backtracking, until beta clears every normal.
    """
    zero = np.zeros((1, 1))
    D = a1 * b2 - a2 * b1
    if D.min() > 0.0:
        s = 1.0
    elif D.max() < 0.0:
        s = -1.0
    else:
        return None, zero, zero, 0
    theta = np.sort(
        np.concatenate((np.arctan2(-s * b1, s * b2).ravel(), np.arctan2(-s * a1, s * a2).ravel()))
    )
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    i = int(np.argmax(gaps))
    mid = float(theta[i] + 0.5 * gaps[i]) + math.pi
    c1, c2 = beta = math.cos(mid), math.sin(mid)
    it = 0
    if not gaps[i] > np.pi + 2.0 * _BETA_MARGIN:
        ra, rb = np.hypot(a1, a2), np.hypot(b1, b2)
        N = np.reshape([np.broadcast_to(x, (n, n)) for x in
                        (s * b2 / rb, s * a2 / ra, -s * b1 / rb, -s * a1 / ra)], (2, 2, n, n))
        # the metric |c|^2 + mean(h^2 + |dh|^2): its Riesz map P is n^2 (1 +
        # |k|^2)^-1 on each mode of h's rfft2, whose first axis is full, so
        # |k| of row j is that of mode min(j, n - j)
        k, j = _wavenumbers(n), np.arange(n)
        riesz = n * n / (1.0 + k[np.minimum(j, n - j), None] ** 2 + k[None, :] ** 2)
        c, h, prev = np.array(beta), np.zeros((n, n)), None
        J, g_c, g_h, clearance = _beta_penalty(c, h, N, k)
        while not clearance > 0.0 and it < 4000:
            it += 1
            d_h = np.fft.irfft2(riesz * np.fft.rfft2(g_h), s=(n, n))
            gnorm2 = float(g_c @ g_c + np.sum(g_h * d_h))  # <g, Pg>
            if prev is None:
                step = 1.0 / max(1.0, math.sqrt(gnorm2))
            elif prev[1] > 0.0:  # BB in H^1: a step s = -t Pg has <s, P^-1 s> = t^2 <g, Pg>
                step = prev[0] / prev[1]
            t = step
            while t > 1e-18:  # Armijo backtracking
                c_t, h_t = c - t * g_c, h - t * d_h
                J_t, gc_t, gh_t, clearance_t = _beta_penalty(c_t, h_t, N, k)
                if J_t <= J - 1e-4 * t * gnorm2:
                    break
                t *= 0.5
            else:
                break
            sy = float((c_t - c) @ (gc_t - g_c) + np.sum((h_t - h) * (gh_t - g_h)))
            prev = t * t * gnorm2, sy
            c, h, J, g_c, g_h, clearance = c_t, h_t, J_t, gc_t, gh_t, clearance_t
        if not clearance > 0.0:
            return None, zero, zero, it
        c1, c2, beta = c[0] + _du(h, k), c[1] + _dv(h, k), None
    return beta, np.log((c1 * b2 - c2 * b1) / D), np.log((c1 * a2 - c2 * a1) / D), it


def scaling_solve(a: DifferentialForm, b: DifferentialForm, *, n: int = 64) -> ScalingSolution:
    """Positive grid scalings f = e^phi, g = e^gamma making f a - g b closed:
    f = g = 1 when d(a - b) is already below ``_SCALING_TOL``, else
    f = (beta^b)/(a^b) and g = (beta^a)/(a^b) for a closed 1-form beta from
    ``_closed_beta``, which make f a - g b = beta exactly: one constant beta
    in 0 iterations when the normals of a and b fit in an open half-plane,
    otherwise beta = c + dh from a convex iteration.  A pair whose a^b has
    no strict sign, or for which no beta is found, keeps f = g = 1 and gets
    ``success=False``.

    Jointly shrinking f and g scales the curl down without changing
    anything, so the residual is gauge-fixed, that of the representative
    with mean(phi) = 0, which is returned.  Non-finite samples of a or b
    raise ``PreLagError``.
    """
    a1, a2 = _sample_form(a, n, "a")
    b1, b2 = _sample_form(b, n, "b")
    k = _wavenumbers(n)

    def grid(x):  # n x n, C-ordered: np.mean of a broadcast view may sum in another order
        return np.ascontiguousarray(np.broadcast_to(x, (n, n)))

    def residual(phi, gamma):
        rho = _curl(np.exp(phi), np.exp(gamma), a1, a2, b1, b2, k)
        return math.sqrt(math.exp(-2.0 * np.mean(grid(phi))) * np.mean(grid(rho * rho)))

    phi = gamma = np.zeros((1, 1))
    beta, it = None, 0
    res = residual(phi, gamma)
    if res >= _SCALING_TOL:
        beta, phi, gamma, it = _closed_beta(a1, a2, b1, b2, n)
        res = residual(phi, gamma)
    # gauge: joint constant shift, zero-mean phi (leaves the gauge-fixed
    # residual unchanged)
    m = float(np.mean(grid(phi)))
    phi = grid(phi) - m
    gamma = grid(gamma) - m
    if beta is not None:
        beta = (math.exp(-m) * beta[0], math.exp(-m) * beta[1])
    return ScalingSolution(n=n, log_f=phi, log_g=gamma, residual=res, iterations=it,
                           success=res < _SCALING_TOL, beta=beta)


# ---------------------------------------------------------------------------
# certificate pipeline

@dataclass(frozen=True)
class PreLagReport:
    outcome: str  # certificate | not_attempted | failed
    diagnostics: tuple[str, ...]
    obstruction: ObstructionResult | None = None
    parallel_verdict: str | None = None
    cone_pair: tuple | None = None
    scaling_residual: float | None = None  # max |d(a - b)|
    extension_u: ScalingExtension | None = None
    extension_s: ScalingExtension | None = None
    c1_distance: float | None = None
    final_residual: float | None = None
    final_al: ALReport | None = None
    pair: FormPair | None = None

    def to_dict(self):
        return {
            "outcome": self.outcome,
            "diagnostics": list(self.diagnostics),
            "obstruction": None if self.obstruction is None else self.obstruction.to_dict(),
            "parallel_verdict": self.parallel_verdict,
            "cone_pair": None if self.cone_pair is None else [list(d) for d in self.cone_pair],
            # the constant scalings tried, log f = log g = 0, and what they leave
            "scaling": None
            if self.scaling_residual is None
            else {"residual": self.scaling_residual, "log_f": 0.0, "log_g": 0.0},
            "extension_u": None if self.extension_u is None else self.extension_u.to_dict(),
            "extension_s": None if self.extension_s is None else self.extension_s.to_dict(),
            "scale_C": _SCALE_C,
            "c1_distance": self.c1_distance,
            "final_residual": self.final_residual,
            "final_al": None if self.final_al is None else self.final_al.to_dict(),
        }


def _mean_constant_form(beta: DifferentialForm) -> DifferentialForm:
    """Constant-coefficient (hence closed) form with the grid-averaged
    coefficients of beta."""
    coeffs = {idx: ex.const(float(np.mean(torus_samples(beta.coeff(idx), 48))))
              for idx in ((0,), (1,))}
    return DifferentialForm(UV, 1, coeffs)


# per-axis samples of the AL checks the CLI's check-pair stage and the
# certificate's final check make
AL_GRID = 12

# the bound on max |d(a - b)| below which the pipeline takes f = g = 1, and
# on max |d| of the final restricted sum
_TOL = 1e-6

# the constant C of the standard pair (C alpha_+, alpha_- / C) the pipeline
# rebuilds
_SCALE_C = 10.0


def pre_lagrangian_certificate(
    model: FlowModel | None = None,
    sigma: TorusEmbedding | None = None,
    *,
    foliations: tuple[Foliation2, Foliation2] | None = None,
) -> PreLagReport:
    """Fail-soft pipeline: obstruction test, shared-compact-leaf analysis,
    closedness of a - b (a and b being alpha_u and alpha_s restricted to
    sigma), collar extension, constant rescaling, collar perturbation, and
    a final check that the restricted sum is closed and the pair still
    passes the AL test.  Bare foliation pairs run the decision stages only.

    The scalings are f = g = 1, taken when max |d(a - b)| on the
    ``curl_residual`` grid is below ``_TOL``; otherwise the outcome is
    ``failed``.  ``_TOL`` also bounds the final restricted sum's residual.

    Each form is restricted to sigma once: a and b are the defining forms
    of the weak foliations (``Foliation2.form``), and the standard pair's
    restricted sum gives the target, the perturbation and, when the
    perturbation leaves the pair as it is, the final residual.
    """
    if model is not None:
        if sigma is None:
            raise PreLagError("an ambient model needs a torus embedding")
        F_ws, F_wu = weak_foliations_on_torus(model, sigma)
    elif foliations is not None:
        F_ws, F_wu = foliations
    else:
        raise PreLagError("need either an ambient model or a foliation pair")

    obst = obstruction_test(F_ws, F_wu)
    common = dict(obstruction=obst)

    def stop(outcome: str, why: str) -> PreLagReport:
        return PreLagReport(outcome=outcome, diagnostics=(why,), **common)

    if obst.verdict == "obstructed":
        return stop(
            "not_attempted",
            "nontrivial loop winding: no restricted combination can be closed",
        )

    par = parallel_compact_leaves(F_ws, F_wu)
    common.update(
        parallel_verdict=par.verdict,
        cone_pair=cone_separation(F_ws, F_wu),
    )
    if par.parallel:
        return stop(
            "failed", "parallel compact leaves: the scaling construction hypothesis fails"
        )
    if model is None:
        return stop("not_attempted", "foliation data only: no ambient pair to rebuild")

    res = curl_residual(F_ws.form - F_wu.form)
    common["scaling_residual"] = res
    if not res < _TOL:  # NaN refuses too
        return stop(
            "failed",
            f"f = g = 1 leaves max |d(a - b)| = {res:.2e}, not below {_TOL:.2e}: "
            "no other scalings are tried",
        )

    r_u = substitute(model.r_u, sigma.chart())
    r_s = substitute(model.r_s, sigma.chart())
    try:
        ext_u = _collar_extension(r_u)
        ext_s = _collar_extension(ex.neg(r_s))
    except AllabError as e:
        return stop("failed", f"collar extension failed: {e}")
    common.update(extension_u=ext_u, extension_s=ext_s)

    pair = model.standard_pair(_SCALE_C)
    restricted = restrict(pair.plus + pair.minus, sigma)
    beta = _mean_constant_form(restricted)
    try:
        perturbed = perturb_pair(pair, beta, sigma, restricted)
    except PerturbationError as e:
        return stop("failed", f"collar perturbation failed: {e}")
    final_pair = perturbed.pair
    if perturbed.changed:
        restricted = restrict(final_pair.plus + final_pair.minus, sigma)

    final_al = al_check(final_pair, n=AL_GRID)
    final_res = curl_residual(restricted)
    ok = final_al.verdict == "anosov_liouville" and final_res < _TOL
    return PreLagReport(
        outcome="certificate" if ok else "failed",
        diagnostics=perturbed.warnings
        if ok
        else (f"final check: verdict {final_al.verdict}, residual {final_res:.2e}",),
        c1_distance=perturbed.c1_norm,
        final_residual=final_res,
        final_al=final_al,
        pair=final_pair,
        **common,
    )


@functools.lru_cache(maxsize=2)  # the two rates of one model
def _collar_extension(r: Expr) -> ScalingExtension:
    """Collar extension of the scaling f = 1, with plateau constants chosen
    from grid bounds with a factor-2 headroom.

    Memoized per rate: the extension depends on r alone, and a suspension
    model's two rates are both 1 at every fiber, so one build serves both
    extensions of every certificate.  A ``ScalingExtension`` is frozen (its
    margin is computed once), so sharing it is safe; a refused rate is not
    cached and raises on every call."""
    delta, eps = 0.2, 0.1
    s_max = float(np.max(np.abs(1.0 - torus_samples(r, 24))))  # inner-band exponent
    C = 2.0 * math.exp(s_max * eps)
    c = 0.5 * math.exp(-s_max * eps)
    return extend_scaling(ex.ONE, r, delta=delta, eps=eps, c=c, C=C)


# ---------------------------------------------------------------------------
# graph criterion

@dataclass(frozen=True)
class GraphCheck:
    ok: bool
    residual: float


def check_graph_lagrangian(pair: FormPair, sigma: TorusEmbedding, f: Expr) -> GraphCheck:
    """Is d[(e^f alpha_+ + e^-f alpha_-)|_Sigma] below ``_TOL`` on the grid?"""
    rep = al_check(pair, n=8)
    if rep.verdict == "fail":
        raise PreLagError("pair fails the AL check")
    beta = restrict(pair.plus, sigma).scale(ex.func("exp", f)) + restrict(
        pair.minus, sigma
    ).scale(ex.func("exp", ex.neg(f)))
    res = curl_residual(beta)
    return GraphCheck(res < _TOL, res)
