"""Seeded case lists for the four workloads.

Everything here is plain data and numpy: a case is a kind, its parameters
and, for foliation pairs, the allab expression texts together with the same
fields written directly in numpy.  The checks use the numpy fields and the
parameters; allab only ever sees the expression texts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli-cold", "foliation-scan", "certificate-sweep", "scaling-solve")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Case:
    kind: str
    label: str
    params: dict = field(default_factory=dict)
    # name of the known program fault this case trips over, if any; such a
    # case is counted as failed without making the run incorrect
    known_fault: str | None = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _irrational(rng: random.Random, lo: float, hi: float, avoid=()) -> float:
    """A slope at least 0.02 away from every p/q with q <= 8 (so no return
    map of period <= 8 has a periodic point) and at least 0.1 from ``avoid``."""
    while True:
        s = rng.uniform(lo, hi)
        if min(abs(q * s - round(q * s)) for q in range(1, 9)) < 0.02:
            continue
        if any(abs(s - a) < 0.1 for a in avoid):
            continue
        return s


# ---------------------------------------------------------------------------
# foliation pairs: (allab texts, numpy field) for F and G


def pair_fields(kind: str, p: dict):
    """Return ((F_v1, F_v2), (G_v1, G_v2), F_np, G_np) for a foliation-pair
    case.  The numpy callables map (u, v) arrays to (V1, V2)."""
    if kind == "reeb":
        c, k = p["c"], p["k"]
        ang = f"pi/2 + {c!r}*pi*sin(2*pi*{k}*u)"

        def angle(u, v):
            return 0.5 * math.pi + c * math.pi * np.sin(TWO_PI * k * u) + 0.0 * v

        return _rotated(ang, angle)
    if kind == "planted":
        a, b = p["p"], p["q"]
        ang = f"2*pi*({a}*u + {b}*v)"

        def angle(u, v):
            return TWO_PI * (a * u + b * v)

        return _rotated(ang, angle)
    if kind == "isolated":
        e, b, m, s, v0 = p["eps"], p["b"], p["m"], p["sigma"], p["v0"]
        f2 = (f"2*pi*{e!r}*cos(2*pi*u)"
              f" + {b!r}*sin(2*pi*{m}*(v - {v0!r} - {e!r}*sin(2*pi*u)))")
        g2 = f"{s!r} + 2*pi*{e!r}*cos(2*pi*u)"

        def F(u, v):
            return (
                np.ones_like(u + v),
                TWO_PI * e * np.cos(TWO_PI * u)
                + b * np.sin(TWO_PI * m * (v - v0 - e * np.sin(TWO_PI * u))),
            )

        def G(u, v):
            return np.ones_like(u + v), s + TWO_PI * e * np.cos(TWO_PI * u) + 0.0 * v

        return ("1", f2), ("1", g2), F, G
    if kind == "linear":
        e, rho, s = p["eps"], p["rho"], p["sigma"]

        def conj(slope):
            def fn(u, v):
                return np.ones_like(u + v), slope + TWO_PI * e * np.cos(TWO_PI * u) + 0.0 * v

            return fn

        return (
            ("1", f"{rho!r} + 2*pi*{e!r}*cos(2*pi*u)"),
            ("1", f"{s!r} + 2*pi*{e!r}*cos(2*pi*u)"),
            conj(rho),
            conj(s),
        )
    raise ValueError(f"not a foliation-pair kind: {kind}")


def _rotated(ang: str, angle):
    """F at the given angle and G a quarter turn ahead of it."""

    def F(u, v):
        t = angle(u, v)
        return np.cos(t), np.sin(t)

    def G(u, v):
        t = angle(u, v)
        return -np.sin(t), np.cos(t)

    return (f"cos({ang})", f"sin({ang})"), (f"-sin({ang})", f"cos({ang})"), F, G


def foliation_scan(seed: int) -> list[Case]:
    """Five pairs covering the four detection paths; parameters move with the
    seed but never change how many leaves, annuli or return maps a case has,
    so the work per pass stays the same.

    Two input families are left out because allab answers them wrongly on
    some seeds only (CHANGES.md, FOUND): Reeb bands with k = 2, where
    cone_separation can report a cone pair for a field that takes every
    direction, and isolated leaves crossing u = 0 on a point of the
    return-map scan grid, where the fixed point can be missed."""
    rng = _rng("foliation-scan", seed)
    # c in (1, 1.5): F has 6 leaves and G 4, away from tangential roots
    cases = [Case("reeb", "reeb-k1", {"c": rng.uniform(1.15, 1.4), "k": 1})]
    sigma = _irrational(rng, 0.55, 0.75)
    cases.append(
        Case(
            "isolated",
            "isolated-m2",
            {
                "m": 2,
                "eps": rng.uniform(0.02, 0.05),
                # b < sigma keeps F and G transverse
                "b": rng.uniform(0.15, 0.3),
                "sigma": sigma,
                # leaves cross u = 0 at v0 + j/4, halfway between points of
                # the 1024-interval scan
                "v0": (rng.randrange(1, 256) + 0.5) / 1024,
            },
        )
    )
    q, p = rng.choice([(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 3)])
    rho = p / q
    cases.append(
        Case(
            "linear",
            "linear-rational",
            {"eps": rng.uniform(0.02, 0.05), "rho": rho, "q": q, "p": p,
             "sigma": _irrational(rng, 0.2, 0.8, avoid=(rho,))},
        )
    )
    rho = _irrational(rng, 0.2, 0.8)
    cases.append(
        Case(
            "linear",
            "linear-irrational",
            {"eps": rng.uniform(0.02, 0.05), "rho": rho, "q": None, "p": None,
             "sigma": _irrational(rng, 0.2, 0.8, avoid=(rho,))},
        )
    )
    a, b = rng.choice([(1, 1), (1, -1), (2, 1), (1, 2), (-1, 1), (2, -1), (-1, 2)])
    cases.append(Case("planted", "planted", {"p": a, "q": b}))
    return cases


# ---------------------------------------------------------------------------
# suspension models


def _hyperbolic_matrices() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Positive words of length 2 and 3 in L = [[1,0],[1,1]] and
    R = [[1,1],[0,1]] that use both letters: hyperbolic, unimodular, trace
    3 or 4."""
    L = np.array([[1, 0], [1, 1]])
    R = np.array([[1, 1], [0, 1]])
    out = []
    for n in (2, 3):
        for bits in range(2**n):
            word = [(bits >> i) & 1 for i in range(n)]
            if len(set(word)) < 2:
                continue
            M = np.eye(2, dtype=int)
            for w in word:
                M = M @ (R if w else L)
            A = tuple(tuple(int(x) for x in row) for row in M)
            if A not in out:
                out.append(A)
    return out


def certificate_sweep(seed: int) -> list[Case]:
    rng = _rng("certificate-sweep", seed)
    mats = _hyperbolic_matrices()
    return [
        Case("suspension", f"suspension-{i}", {"A": rng.choice(mats),
                                              "z": rng.uniform(-0.4, 0.4)})
        for i in range(4)
    ]


# ---------------------------------------------------------------------------
# planted scaling problems

# The problems are fixed and the seed only orders them: the solver's
# Barzilai-Borwein step makes its iteration count depend on last-digit
# changes of the input (a grid translation of the n = 64 problem moves it
# from 400 to 644 iterations), so seeded data would measure the seed.
PLANTED_1D = 0.3  # h(u) = 0.3 sin(2 pi u), criterion 8 of the acceptance tests
PLANTED_2D = 0.3  # h(u, v) = 0.3 sin(2 pi u) cos(2 pi v)


def planted_h(dim: int, n: int) -> np.ndarray:
    t = np.arange(n) / n
    U, V = np.meshgrid(t, t, indexing="ij")
    if dim == 1:
        return PLANTED_1D * np.sin(TWO_PI * U)
    return PLANTED_2D * np.sin(TWO_PI * U) * np.cos(TWO_PI * V)


def planted_text(dim: int) -> str:
    if dim == 1:
        return f"exp({PLANTED_1D!r}*sin(2*pi*u))"
    return f"exp({PLANTED_2D!r}*sin(2*pi*u)*cos(2*pi*v))"


def scaling_solve(seed: int) -> list[Case]:
    cases = [Case("planted-1d", f"planted-1d-n{n}", {"dim": 1, "n": n}) for n in (32, 64, 128)]
    cases.append(Case("planted-2d", "planted-2d-n16", {"dim": 2, "n": 16}))
    cases.append(Case("planted-2d", "planted-2d-n32", {"dim": 2, "n": 32}, known_fault="F2"))
    _rng("scaling-solve", seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# command-line runs


CLI_COMMANDS = (
    # README quick start
    ("check-pair", "cat-map"),
    ("pre-lagrangian", "cat-map"),
    ("pre-lagrangian", "franks-williams"),
    ("pre-lagrangian", "eight-band"),
    ("render", "two-reeb-band"),
    # all stages on each shipped config
    ("all", "cat-map"),
    ("all", "eight-band"),
    ("all", "franks-williams"),
    ("all", "two-reeb-band"),
)


def cli_cold(seed: int) -> list[Case]:
    cases = [
        Case(
            "cli",
            f"{cmd}:{cfg}",
            {"command": cmd, "config": cfg},
            known_fault="F1" if (cmd, cfg) == ("all", "two-reeb-band") else None,
        )
        for cmd, cfg in CLI_COMMANDS
    ]
    _rng("cli-cold", seed).shuffle(cases)
    return cases


def build(workload: str, seed: int) -> list[Case]:
    return {
        "cli-cold": cli_cold,
        "foliation-scan": foliation_scan,
        "certificate-sweep": certificate_sweep,
        "scaling-solve": scaling_solve,
    }[workload](seed)
