"""Suspension flow models over hyperbolic toral automorphisms: the mapping
torus geometry, the defining and standard 1-form pairs, the weak foliations
they induce on torus fibers, and a finite-time power-iteration estimator of
the hyperbolic splitting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import AllabError
from . import expr as ex
from .expr import Expr, ZERO, compile_field, compile_kernel, parse_expr
from .geom import (
    DifferentialForm,
    Gluing3,
    TorusEmbedding,
    XYZ,
    exterior_derivative,
    fiber_embedding,
    lie_derivative,
    one_form,
    restrict,
)
from .contact import FormPair, al_check
from .foliation import Foliation2, FoliationError, _check_transverse_pair


class ModelError(AllabError):
    pass


@dataclass(frozen=True)
class FlowModel:
    gluing: Gluing3
    X: tuple[Expr, Expr, Expr]  # the flow's vector field over (x, y, z)
    alpha_u: DifferentialForm
    alpha_s: DifferentialForm
    r_u: Expr
    r_s: Expr

    @property
    def alpha_plus(self) -> DifferentialForm:
        return self.alpha_u - self.alpha_s

    @property
    def alpha_minus(self) -> DifferentialForm:
        return self.alpha_u + self.alpha_s

    def standard_pair(self, C: float = 1.0) -> FormPair:
        """(C alpha_plus, alpha_minus / C) on the gluing.  A negative C
        negates both forms, which leaves every density unchanged."""
        if not (C != 0.0 and math.isfinite(C)):
            raise ModelError(f"the pair scale C = {C!r} is not finite and nonzero")
        plus, minus = self.alpha_plus, self.alpha_minus
        return FormPair(plus.scale(ex.const(C)), minus.scale(ex.const(1.0 / C)), self.gluing)

    def fiber(self, z: float = 0.0) -> TorusEmbedding:
        return fiber_embedding(self.gluing, z)

    @np.errstate(all="ignore")  # a domain error gives NaN, refused below
    def validate(self):
        """Defining-pair identities: L_X a = r a for both forms at 100 seeded
        random points, expansion rates of the right signs, and the standard
        pair passing the AL test."""
        rng = random.Random(7)
        checks = [
            (self.alpha_u, self.r_u),
            (self.alpha_s, self.r_s),
        ]
        nu = self.gluing.nu
        for alpha, r in checks:
            resid = lie_derivative(self.X, alpha) - alpha.scale(r)
            pts = np.array([
                (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5 * nu, 0.5 * nu))
                for _ in range(100)
            ])
            worst = np.zeros(len(pts))
            for c in resid.coeffs.values():
                worst = np.maximum(worst, np.abs(compile_field(c, XYZ)(*pts.T)))
            bad = np.flatnonzero(~(worst <= 1e-9))  # NaN fails too
            if bad.size:
                i = bad[0]
                raise ModelError(
                    f"defining-pair identity fails at (x, y, z) = "
                    f"{tuple(map(float, pts[i]))} (residual {worst[i]:.2e})"
                )
        grid = self.gluing.sample_points(12)
        for r, positive in ((self.r_u, True), (self.r_s, False)):
            vals = np.asarray(compile_kernel(r, XYZ)(*grid), dtype=float)
            ok = vals.min() > 0 if positive else vals.max() < 0
            if not ok:
                raise ModelError("expansion rates have the wrong sign")
        report = al_check(self.standard_pair(), n=12)
        if report.verdict != "anosov_liouville":
            raise ModelError(f"standard pair fails the AL test: {report.verdict}")
        return True


def _eigen_data(A: np.ndarray):
    tr = A[0, 0] + A[1, 1]
    disc = tr * tr - 4.0
    lam_u = (tr + math.sqrt(disc)) / 2.0
    lam_s = (tr - math.sqrt(disc)) / 2.0

    def unit_eigvec(lam):
        # (A - lam) v = 0; pick the better-conditioned row
        r1 = (A[0, 0] - lam, A[0, 1])
        r2 = (A[1, 0], A[1, 1] - lam)
        r = r1 if math.hypot(*r1) > math.hypot(*r2) else r2
        v = np.array([-r[1], r[0]])
        v = v / np.linalg.norm(v)
        if v[0] < 0 or (v[0] == 0 and v[1] < 0):
            v = -v
        return v

    return lam_u, lam_s, unit_eigvec(lam_u), unit_eigvec(lam_s)


def suspension_model(A) -> FlowModel:
    """Mapping-torus flow of a hyperbolic unimodular integer matrix, with
    the explicit exponentially scaled defining pair.

    Chart: (x, y) are expanding/contracting coordinates, the deck map is
    (x, y, z) -> (e^nu x, e^-nu y, z - nu), and the spatial lattice is
    P(Z^2) where P conjugates the diagonal deck action back to A.
    """
    A = np.array(A, dtype=float)
    if A.shape != (2, 2) or np.max(np.abs(A - np.round(A))) > 1e-12:
        raise ModelError("matrix must be an integer 2x2 matrix")
    if abs(np.linalg.det(A) - 1.0) > 1e-12:
        raise ModelError("matrix must be unimodular (det 1)")
    tr = A[0, 0] + A[1, 1]
    if abs(tr) <= 2:
        raise ModelError(f"matrix is not hyperbolic (trace {tr:g})")
    if tr < 0:
        raise ModelError(
            "negative-trace suspensions reverse orientation and are not built in"
        )
    lam_u, lam_s, v_u, v_s = _eigen_data(A)
    nu = math.log(lam_u)
    W = np.column_stack([v_u, v_s])
    detW = float(np.linalg.det(W))
    t1 = math.sqrt(abs(detW))
    t2 = detW / t1
    # P A = D P with D = diag(e^nu, e^-nu), det P = 1
    P = np.diag([t1, t2]) @ np.linalg.inv(W)
    D = np.diag([lam_u, lam_s])
    gluing = Gluing3(P=tuple(map(tuple, P)), D=tuple(map(tuple, D)), nu=nu)
    gluing.validate()
    alpha_u = one_form(XYZ, parse_expr("exp(z)"), ZERO, ZERO)
    alpha_s = one_form(XYZ, ZERO, ex.neg(parse_expr("exp(-z)")), ZERO)
    return FlowModel(
        gluing=gluing,
        X=(ZERO, ZERO, ex.ONE),
        alpha_u=alpha_u,
        alpha_s=alpha_s,
        r_u=ex.ONE,
        r_s=ex.const(-1.0),
    )


def weak_foliations_on_torus(
    m: FlowModel, sigma: TorusEmbedding
) -> tuple[Foliation2, Foliation2]:
    """Foliations cut on the torus by the weak-stable (ker alpha_u) and
    weak-unstable (ker alpha_s) plane fields, in (u, v) chart coordinates."""
    sigma.check_transverse(m.X)
    F_ws = Foliation2.from_form(restrict(m.alpha_u, sigma))
    F_wu = Foliation2.from_form(restrict(m.alpha_s, sigma))
    try:
        _check_transverse_pair(F_ws, F_wu)
    except FoliationError as e:
        raise ModelError(f"induced foliations are not transverse: {e}") from e
    return F_ws, F_wu


# ---------------------------------------------------------------------------
# finite-time splitting estimation

@dataclass(frozen=True)
class SplittingEstimate:
    T: float
    direction: tuple[float, float]  # unit vector in fiber chart coordinates
    expansion_factors: tuple[float, ...]
    iterations: int

    @property
    def slope(self) -> float:
        return self.direction[1] / self.direction[0]

    @property
    def expansion_factor(self) -> float:
        return self.expansion_factors[-1]


def estimate_splitting(
    m: FlowModel, T: float | None = None, *, reverse: bool = False
) -> SplittingEstimate:
    """Power iteration of the projectivized time-T fiber derivative, in the
    lattice (chart) coordinates of the fiber; forward time converges to the
    unstable direction, reversed time to the stable one."""
    T = m.gluing.nu if T is None else float(T)
    if not 0 < T < math.inf:  # NaN refuses too
        raise ModelError(f"time horizon must be positive and finite (T = {T})")
    P = m.gluing.P_mat
    M = np.linalg.inv(P) @ np.diag([math.exp(T), math.exp(-T)]) @ P
    if reverse:
        M = np.linalg.inv(M)
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    factors = []
    for k in range(1, 101):
        w = M @ d
        factors.append(float(np.linalg.norm(w)))
        w = w / np.linalg.norm(w)
        if w @ d < 0:
            w = -w
        if np.linalg.norm(w - d) < 1e-12:
            d = w
            break
        d = w
    else:
        raise ModelError(
            f"splitting estimate did not converge; last directions "
            f"{tuple(d)} -> {tuple(w)}"
        )
    return SplittingEstimate(T, (float(d[0]), float(d[1])), tuple(factors), k)


def chart_to_ambient(m: FlowModel, direction) -> np.ndarray:
    """Fiber chart direction (du, dv) as an ambient (dx, dy, dz) vector."""
    P = m.gluing.P_mat
    w = P @ np.asarray(direction, dtype=float)
    return np.array([w[0], w[1], 0.0])


# ---------------------------------------------------------------------------
# Reeb fields

def reeb_field_numeric(alpha: DifferentialForm):
    """Pointwise Reeb field of a contact form: with d(alpha) = c01 dx^dy +
    c02 dx^dz + c12 dy^dz, the vector w = (c12, -c02, c01) spans the kernel
    of d(alpha), and R = w / alpha(w).  The returned callable takes an
    (x, y, z) triple of broadcastable arrays and gives the three components
    stacked on the first axis."""
    da = exterior_derivative(alpha)
    a_fns = [compile_field(alpha.coeff((i,)), XYZ) for i in range(3)]
    da_fns = [compile_field(da.coeff(idx), XYZ) for idx in ((1, 2), (0, 2), (0, 1))]

    @np.errstate(all="ignore")  # a domain error gives NaN, refused below
    def at(points) -> np.ndarray:
        c12, c02, c01 = (fn(*points) for fn in da_fns)
        w = np.array([c12, -c02, c01])
        alpha_w = sum(fn(*points) * wk for fn, wk in zip(a_fns, w))
        if not np.all(np.abs(alpha_w) > 0):  # NaN refuses too
            raise ModelError("alpha ^ d(alpha) vanishes: the form is not contact there")
        return w / alpha_w

    return at
