"""Glued 3-charts, differential forms with symbolic coefficients, exact
exterior calculus, and one pullback for every change of coordinates on
forms: restriction to embedded tori, the lift to the s-cylinder, the collar
extension off a torus and the lattice and deck maps of the periodicity check.

Forms live over an ordered coordinate tuple such as ``("x","y","z")``, the
extended ``("s","x","y","z")`` used for Liouville checks, or ``("u","v")``
for forms restricted to a torus.  Coefficients are indexed by strictly
increasing multi-indices over the basis covectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import AllabError
from . import expr as ex
from .expr import Expr, ZERO, compile_field, diff, substitute, zadd, zmul, zneg, zsub

XYZ = ("x", "y", "z")
SXYZ = ("s", "x", "y", "z")
UV = ("u", "v")

Grid3 = tuple[np.ndarray, np.ndarray, np.ndarray]  # (x, y, z), broadcastable


class GeomError(AllabError):
    pass


class DegreeError(GeomError):
    pass


def _wedge_index(i: Sequence[int], j: Sequence[int]):
    """Merge two strictly increasing multi-indices; returns (sign, merged)
    or None when an index repeats."""
    merged = list(i) + list(j)
    if len(set(merged)) != len(merged):
        return None
    sign = 1
    # counting inversions of the concatenation gives the sorting sign
    for a in range(len(merged)):
        for b in range(a + 1, len(merged)):
            if merged[a] > merged[b]:
                sign = -sign
    return sign, tuple(sorted(merged))


@dataclass(frozen=True)
class DifferentialForm:
    coords: tuple[str, ...]
    degree: int
    coeffs: Mapping[tuple[int, ...], Expr] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.coords)
        if not 0 <= self.degree <= n:
            raise DegreeError(f"degree {self.degree} out of range for dim {n}")
        cleaned = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise GeomError(f"bad multi-index {idx} for degree {self.degree}")
            if c != ZERO:
                cleaned[idx] = c
        object.__setattr__(self, "coeffs", cleaned)

    def coeff(self, idx: tuple[int, ...]) -> Expr:
        return self.coeffs.get(tuple(idx), ZERO)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = zadd(out.get(idx, ZERO), c)
        return DifferentialForm(self.coords, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = zsub(out.get(idx, ZERO), c)
        return DifferentialForm(self.coords, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.coords, self.degree, {i: zneg(c) for i, c in self.coeffs.items()}
        )

    def scale(self, factor: Expr | float) -> "DifferentialForm":
        if not isinstance(factor, (ex.Const, ex.Var, ex.BinOp, ex.Func)):
            factor = ex.const(factor)
        return DifferentialForm(
            self.coords, self.degree, {i: zmul(factor, c) for i, c in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "DifferentialForm"):
        if self.coords != other.coords or self.degree != other.degree:
            raise GeomError("form mismatch: differing coords or degree")

    def evaluate(self, point: Mapping[str, float]) -> dict[tuple[int, ...], float]:
        return {i: ex.evaluate(c, point) for i, c in self.coeffs.items()}


def one_form(coords: tuple[str, ...], *coeffs: Expr) -> DifferentialForm:
    if len(coeffs) != len(coords):
        raise GeomError("need one coefficient per covector")
    return DifferentialForm(coords, 1, {(i,): c for i, c in enumerate(coeffs)})


def volume_form() -> DifferentialForm:
    """dx ^ dy ^ dz."""
    return DifferentialForm(XYZ, 3, {(0, 1, 2): ex.ONE})


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    if omega.degree >= len(omega.coords):
        raise DegreeError("cannot raise degree beyond the dimension")
    out: dict[tuple[int, ...], Expr] = {}
    for idx, c in omega.coeffs.items():
        for j, name in enumerate(omega.coords):
            dc = diff(c, name)
            if dc == ZERO:
                continue
            res = _wedge_index((j,), idx)
            if res is None:
                continue
            sign, merged = res
            term = dc if sign > 0 else zneg(dc)
            out[merged] = zadd(out.get(merged, ZERO), term)
    return DifferentialForm(omega.coords, omega.degree + 1, out)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.coords != b.coords:
        raise GeomError("wedge of forms over different coordinates")
    if a.degree + b.degree > len(a.coords):
        raise DegreeError("wedge degree exceeds the dimension")
    out: dict[tuple[int, ...], Expr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            res = _wedge_index(ia, ib)
            if res is None:
                continue
            sign, merged = res
            term = zmul(ca, cb)
            if sign < 0:
                term = zneg(term)
            out[merged] = zadd(out.get(merged, ZERO), term)
    return DifferentialForm(a.coords, a.degree + b.degree, out)


@dataclass(frozen=True)
class VectorField3:
    """A vector field over (x, y, z)."""

    coeffs: tuple[Expr, Expr, Expr]


def interior_product(X: VectorField3, omega: DifferentialForm) -> DifferentialForm:
    if omega.coords != XYZ:
        raise GeomError("vector field and form live over different coordinates")
    if omega.degree == 0:
        raise DegreeError("interior product of a 0-form")
    out: dict[tuple[int, ...], Expr] = {}
    for idx, c in omega.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = zmul(X.coeffs[i], c)
            if pos % 2 == 1:
                term = zneg(term)
            out[rest] = zadd(out.get(rest, ZERO), term)
    return DifferentialForm(omega.coords, omega.degree - 1, out)


def lie_derivative(X: VectorField3, alpha: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = i_X d + d i_X."""
    part1 = interior_product(X, exterior_derivative(alpha))
    if alpha.degree == 0:
        return part1
    part2 = exterior_derivative(interior_product(X, alpha))
    return part1 + part2


# ---------------------------------------------------------------------------
# gluing data

@dataclass(frozen=True)
class Gluing3:
    """Fundamental domain data: lattice basis P on the (x, y) chart
    directions and a deck transformation (x, y, z) ~ (D(x, y), z - nu)."""

    P: tuple[tuple[float, float], tuple[float, float]]
    D: tuple[tuple[float, float], tuple[float, float]]
    nu: float
    mapping_torus: bool = True

    @property
    def P_mat(self) -> np.ndarray:
        return np.array(self.P, dtype=float)

    @property
    def D_mat(self) -> np.ndarray:
        return np.array(self.D, dtype=float)

    def validate(self):
        P, D = self.P_mat, self.D_mat
        if abs(np.linalg.det(P) - 1.0) > 1e-12:
            raise GeomError(f"lattice basis determinant {np.linalg.det(P)} != 1")
        conj = np.linalg.solve(P, D @ P)
        if np.max(np.abs(conj - np.round(conj))) > 1e-9:
            raise GeomError("deck map does not preserve the lattice")
        if self.nu <= 0:
            raise GeomError("deck shift nu must be positive")

    def lattice_vectors(self) -> list[np.ndarray]:
        P = self.P_mat
        return [P[:, 0].copy(), P[:, 1].copy()]

    def sample_points(self, n: int, z_lo: float | None = None) -> Grid3:
        """Open grid of chart points covering one fundamental domain: x and y
        of shape (n, n, 1) over the lattice steps i/n, j/n, and z of shape
        (n,); they broadcast to the n^3 points in (i, j, k) order."""
        a = np.arange(n) / n
        A, B = a[:, None, None], a[None, :, None]
        P = self.P_mat
        lo = -0.5 * self.nu if z_lo is None else z_lo
        return (P[0, 0] * A + P[0, 1] * B, P[1, 0] * A + P[1, 1] * B, lo + a * self.nu)


def torus3() -> Gluing3:
    """The unit cube with opposite faces identified."""
    ident = ((1.0, 0.0), (0.0, 1.0))
    return Gluing3(P=ident, D=ident, nu=1.0, mapping_torus=False)


def _affine(offset, matrix, coords: Sequence[str]) -> dict[str, Expr]:
    """The map x_k = offset_k + sum_j matrix[k][j] coords_j onto (x, y, z),
    as ``pullback`` takes it."""
    out = {}
    for name, b, row in zip(XYZ, offset, matrix):
        e = ex.const(b)
        for m, c in zip(row, coords):
            e = zadd(e, zmul(ex.const(m), ex.var(c)))
        out[name] = e
    return out


@dataclass(frozen=True)
class TorusEmbedding:
    """Affine 2-torus in the chart: base + u*e1 + v*e2, (u, v) in [0,1)^2."""

    base: tuple[float, float, float]
    e1: tuple[float, float, float]
    e2: tuple[float, float, float]

    @property
    def frame(self) -> np.ndarray:
        return np.array([self.e1, self.e2], dtype=float).T  # 3x2

    def chart(self) -> dict[str, Expr]:
        """x, y and z as base + u*e1 + v*e2."""
        return _affine(self.base, self.frame, UV)

    def validate(self):
        if np.linalg.matrix_rank(self.frame, tol=1e-12) < 2:
            raise GeomError("embedding directions are linearly dependent")

    @np.errstate(all="ignore")  # a domain error gives NaN, refused below
    def check_transverse(self, X: VectorField3):
        """min |normal . X| over the 16 x 16 torus grid (i/16, j/16)."""
        normal = np.cross(self.e1, self.e2)
        normal = normal / np.linalg.norm(normal)
        t = np.arange(16) / 16
        u, v = t[:, None], t
        p = [b + u * d1 + v * d2 for b, d1, d2 in zip(self.base, self.e1, self.e2)]
        flux = sum(nk * compile_field(c, XYZ)(*p) for nk, c in zip(normal, X.coeffs))
        worst = float(np.min(np.abs(flux)))
        if not worst > 1e-9:  # NaN refuses too
            raise GeomError(f"flow not transverse to the torus (margin {worst:.2e})")
        return worst


def fiber_embedding(gluing: Gluing3, z: float = 0.0) -> TorusEmbedding:
    """The torus fiber {z = const}; its directions are the lattice basis."""
    t1, t2 = gluing.lattice_vectors()
    return TorusEmbedding(
        base=(0.0, 0.0, float(z)),
        e1=(float(t1[0]), float(t1[1]), 0.0),
        e2=(float(t2[0]), float(t2[1]), 0.0),
    )


def torus_samples(e: Expr, n: int, offset: float = 0.0) -> np.ndarray:
    """Values of e(u, v) on the torus grid ((i + offset)/n, (j + offset)/n),
    i, j < n, as an n x n array."""
    t = (np.arange(n) + offset) / n
    return compile_field(e, UV)(t[:, None], t)


def grid_point(grid: Sequence[np.ndarray], k: int) -> tuple[float, ...]:
    """The point at flat index k of the broadcast grid, as np.argmin and
    np.argmax give it for values over the grid."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in grid))
    i = np.unravel_index(k, shape)
    return tuple(float(np.broadcast_to(c, shape)[i]) for c in grid)


def grid_argmin(values, grid: Sequence[np.ndarray]) -> tuple[float, tuple[float, ...]]:
    """The minimum of ``values`` over the broadcast grid and its grid point.

    ``values`` may have the shape of only the grid axes it varies along, or
    none for a constant.  The point is still the first of the full (i, j, k)
    grid, as np.argmin over the values broadcast to it gives: the first
    minimum of the reduced array in C order, with index 0 on every broadcast
    axis, raveled into the full shape.  A NaN is the first NaN alike."""
    values = np.asarray(values)
    shape = np.broadcast_shapes(values.shape, *(np.shape(c) for c in grid))
    i = int(np.argmin(values))
    at = np.unravel_index(i, (1,) * (len(shape) - values.ndim) + values.shape)
    return float(values.flat[i]), grid_point(grid, int(np.ravel_multi_index(at, shape)))


def curl_residual(beta: DifferentialForm) -> float:
    """max |d beta| for a 1-form beta on the torus, over the 64 x 64 grid."""
    c = exterior_derivative(beta).coeff((0, 1))
    return float(np.max(np.abs(torus_samples(c, 64))))


def pullback(
    omega: DifferentialForm, coords: tuple[str, ...], mapping: Mapping[str, Expr]
) -> DifferentialForm:
    """Pullback of omega along the map that gives each of its coordinates as
    an expression in ``coords``: each coefficient goes through ``substitute``
    and each dx_k becomes d(mapping[x_k]).  A degree above len(coords) is a
    DegreeError."""
    out = DifferentialForm(coords, omega.degree, {})
    cov = [one_form(coords, *(diff(mapping[name], w) for w in coords)) for name in omega.coords]
    for idx, c in omega.coeffs.items():
        basis = DifferentialForm(coords, 0, {(): ex.ONE})
        for k in idx:
            basis = wedge(basis, cov[k])
        out = out + basis.scale(substitute(c, mapping))
    return out


def restrict(omega: DifferentialForm, sigma: TorusEmbedding) -> DifferentialForm:
    """Pullback along the torus chart; output lives in (u, v)."""
    if omega.coords != XYZ:
        raise GeomError("restrict expects a form over (x, y, z)")
    return pullback(omega, UV, sigma.chart())


# ---------------------------------------------------------------------------
# periodicity checking

@dataclass(frozen=True)
class PeriodicityReport:
    max_residual: float
    worst_point: tuple[float, float, float]
    worst_transform: str
    passed: bool


@np.errstate(all="ignore")  # a domain error gives NaN, refused as infinite
def check_periodicity(
    omega: DifferentialForm, gluing: Gluing3, n: int = 12
) -> PeriodicityReport:
    """Grid check of invariance under the lattice translations and, for a
    mapping torus, the deck transformation: max |psi* omega - omega| over
    the coefficients and the sample grid, where a residual that is not
    finite counts as infinite."""
    if n <= 0:
        raise GeomError("empty sampling grid")
    grid = gluing.sample_points(n, z_lo=0.0)
    ident = np.eye(3)
    transforms = {
        f"lattice_{i}": _affine((t[0], t[1], 0.0), ident, XYZ)
        for i, t in enumerate(gluing.lattice_vectors())
    }
    if gluing.mapping_torus:
        jac = np.eye(3)
        jac[:2, :2] = gluing.D_mat
        transforms["deck"] = _affine((0.0, 0.0, -gluing.nu), jac, XYZ)
    else:
        transforms["z_period"] = _affine((0.0, 0.0, gluing.nu), ident, XYZ)
    worst = 0.0
    worst_pt = (0.0, 0.0, 0.0)
    worst_name = ""
    for name, mapping in transforms.items():
        pulled = pullback(omega, XYZ, mapping)
        res = np.zeros(np.broadcast(*grid).shape)
        for idx in pulled.coeffs.keys() | omega.coeffs.keys():
            moved = compile_field(pulled.coeff(idx), XYZ)(*grid)
            gap = np.abs(moved - compile_field(omega.coeff(idx), XYZ)(*grid))
            res = np.maximum(res, np.nan_to_num(gap, nan=np.inf))
        k = int(np.argmax(res))
        if res.flat[k] >= worst:
            worst, worst_pt, worst_name = float(res.flat[k]), grid_point(grid, k), name
    return PeriodicityReport(worst, worst_pt, worst_name, worst < 1e-9)
