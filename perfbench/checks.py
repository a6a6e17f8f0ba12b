"""Correctness checks made apart from allab: closed-form values and the
benchmark's own numpy (RK4, spectral curl, eigenvectors).  Each check takes
plain data (the shape of allab's JSON report) and returns a list of
problems; an empty list means the output is right.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from cases import TWO_PI, pair_fields, planted_h

POS_TOL = 1e-7  # leaf and band positions
AL_TOL = 1e-9  # relative, for the AL densities
CERT_TOL = 1e-6  # the pipeline's default tolerance
TRANSVERSE_MIN = 1e-3  # |sin| between a cone direction and a field
RECOVERY_TOL = 1e-3  # planted scaling recovery, as in acceptance criterion 8


def _circ(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _wrap(x: float) -> float:
    """x mod 1 in [-1e-6, 1 - 1e-6), so a point just below 1 sorts as 0."""
    x = x % 1.0
    return x - 1.0 if x >= 1.0 - 1e-6 else x


# ---------------------------------------------------------------------------
# closed-form foliation facts


def reeb_leaves(c: float, k: int) -> list[tuple[float, int]]:
    """Vertical leaves of the angle pi/2 + c pi sin(2 pi k u), 1 < c < 2:
    cos(angle) = 0 where sin(2 pi k u) = m/c, m in {-1, 0, 1}, with
    orientation sin(angle) = (-1)^m."""
    out = []
    for m in (-1, 0, 1):
        a = math.asin(m / c)
        for j in range(k):
            for x in (a, math.pi - a):
                out.append((_wrap(x / (TWO_PI * k) + j / k), (-1) ** abs(m)))
    return sorted(out)


def annuli_between(leaves: list[tuple[float, int]]) -> list[tuple[float, float]]:
    """Bands between cyclically adjacent leaves of opposite orientation."""
    out = []
    n = len(leaves)
    for i in range(n):
        (lo, s), (hi, t) = leaves[i], leaves[(i + 1) % n]
        if s != t:
            out.append((lo, hi if i + 1 < n else hi + 1.0))
    return out


def check_vertical_leaves(leaves, annuli, expected) -> list[str]:
    """``leaves``/``annuli`` in report form; ``expected`` as (u, sign)."""
    errs = []
    got = sorted(
        (_wrap(lf["point"][0]), lf["cls"][1]) for lf in leaves
        if list(lf["cls"]) in ([0, 1], [0, -1]) and not lf["family"]
    )
    if len(got) != len(leaves) or len(got) != len(expected):
        return [f"{len(leaves)} leaves, expected {len(expected)} vertical ones"]
    for (u, s), (eu, es) in zip(got, expected):
        if _circ(u, eu) > POS_TOL or s != es:
            errs.append(f"leaf ({u:.9f}, {s:+d}) != ({eu:.9f}, {es:+d})")
    # compare bands as (start mod 1, width): where the cyclic order starts
    # is a matter of representation
    want = sorted((_wrap(lo), hi - lo) for lo, hi in annuli_between(expected))
    bands = sorted((_wrap(a["band"][0]), a["band"][1] - a["band"][0])
                   for a in annuli if a["axis"] == "u")
    if len(bands) != len(annuli) or len(bands) != len(want):
        errs.append(f"{len(annuli)} annuli, expected {len(want)}")
    else:
        for (lo, w), (elo, ew) in zip(bands, want):
            if _circ(lo, elo) > POS_TOL or abs(w - ew) > POS_TOL:
                errs.append(f"annulus ({lo:.9f}, +{w:.9f}) != ({elo:.9f}, +{ew:.9f})")
    return errs


def rk4_misses(field, points, cls, steps: int = 1000) -> np.ndarray:
    """Trace the leaves through ``points`` (all in class ``cls``) with the
    benchmark's own RK4 across the displacement ``cls``, and return how far
    each misses closing up.  Leaves are parameterised by u when the class
    moves in u, else by v."""
    a, b = cls
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if a != 0:
        def slope(x, y):
            v1, v2 = field(x + 0.0 * y, y)
            return v2 / v1
        span, x, y, target = a, pts[0, 0], pts[:, 1].copy(), pts[:, 1] + b
    else:
        def slope(x, y):  # x = v, y = u
            v1, v2 = field(y, x + 0.0 * y)
            return v1 / v2
        span, x, y, target = b, pts[0, 1], pts[:, 0].copy(), pts[:, 0]
    if np.ptp(pts[:, 0 if a != 0 else 1]) > 0:
        raise ValueError("leaves traced together must start on one transversal")
    h = span / steps
    for _ in range(steps):
        k1 = slope(x, y)
        k2 = slope(x + h / 2, y + h / 2 * k1)
        k3 = slope(x + h / 2, y + h / 2 * k2)
        k4 = slope(x + h, y + h * k3)
        y = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        x += h
    return np.abs(y - target)


def min_transverse_sin(direction, field, n: int = 384) -> float:
    """Smallest |sin| of the angle between a constant direction and the
    field over an n x n grid offset from allab's."""
    t = (np.arange(n) + 0.137) / n
    U, V = np.meshgrid(t, t, indexing="ij")
    v1, v2 = field(U, V)
    d1, d2 = direction
    cross = np.abs(d1 * v2 - d2 * v1) / (math.hypot(d1, d2) * np.hypot(v1, v2))
    return float(cross.min())


def check_cone(cone, fields) -> list[str]:
    if cone is None:
        return ["no cone pair, although the vertical and slope -10 both clear the fields"]
    errs = []
    for d in cone:
        for i, fn in enumerate(fields):
            s = min_transverse_sin(d, fn)
            if s <= TRANSVERSE_MIN:
                errs.append(f"cone direction {tuple(d)} meets field {i} (|sin| {s:.2e})")
    return errs


def svg_problems(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return [f"svg does not parse: {e}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"svg root is {root.tag}"]
    return []


# ---------------------------------------------------------------------------
# foliation-scan


def check_pair_case(case, out: dict) -> list[str]:
    """``out`` holds winding, compact_leaves, reeb_annuli (report form),
    prelag (PreLagReport.to_dict()) and svg for F of the case's pair."""
    p = case.params
    _, _, F, G = pair_fields(case.kind, p)
    pre = out["prelag"]
    obst = pre["obstruction"]
    errs = svg_problems(out["svg"])
    if case.kind == "planted":
        w = [p["p"], p["q"]]
        if list(out["winding"]) != w:
            errs.append(f"winding {out['winding']} != {w}")
        if obst["verdict"] != "obstructed" or obst["winding_ws"] != w or obst["winding_wu"] != w:
            errs.append(f"obstruction {obst}")
        if pre["outcome"] != "not_attempted":
            errs.append(f"outcome {pre['outcome']}")
        return errs
    if list(out["winding"]) != [0, 0]:
        errs.append(f"winding {out['winding']} != [0, 0]")
    if obst["verdict"] != "passes_obstruction":
        errs.append(f"obstruction {obst['verdict']}")
    leaves, annuli = out["compact_leaves"], out["reeb_annuli"]
    if case.kind == "reeb":
        errs += check_vertical_leaves(leaves, annuli, reeb_leaves(p["c"], p["k"]))
        # c > 1 turns F through every direction, so no constant direction
        # is transverse to it
        if pre["parallel_verdict"] != "parallel" or pre["outcome"] != "failed":
            errs.append(f"verdict {pre['parallel_verdict']} / {pre['outcome']}")
        if pre["cone_pair"] is not None:
            errs.append(f"cone pair {pre['cone_pair']} for a field with every direction")
        return errs
    # isolated and linear: F has V1 = 1, G has no compact leaf
    if case.kind == "isolated":
        m = p["m"]
        want = sorted((_wrap(p["v0"] + j / (2 * m)), (1, 0), False) for j in range(2 * m))
    elif p["q"] is not None:
        want = [(0.0, (p["q"], p["p"]), True)]
    else:
        want = []
    got = sorted((_wrap(lf["point"][1]), tuple(lf["cls"]), lf["family"]) for lf in leaves)
    if len(got) != len(want):
        errs.append(f"{len(got)} compact leaves, expected {len(want)}")
    else:
        for (y, cls, fam), (ey, ecls, efam) in zip(got, want):
            if _circ(y, ey) > POS_TOL or cls != ecls or fam != efam:
                errs.append(f"leaf {y:.9f} {cls} {fam} != {ey:.9f} {ecls} {efam}")
        for cls in {tuple(lf["cls"]) for lf in leaves}:
            pts = [lf["point"] for lf in leaves if tuple(lf["cls"]) == cls]
            miss = float(rk4_misses(F, pts, cls).max())
            if miss > 1e-6:
                errs.append(f"a leaf in class {cls} misses closing by {miss:.2e}")
    if annuli:
        errs.append(f"{len(annuli)} Reeb annuli, expected none")
    if pre["parallel_verdict"] != "not_parallel" or pre["outcome"] != "not_attempted":
        errs.append(f"verdict {pre['parallel_verdict']} / {pre['outcome']}")
    errs += check_cone(pre["cone_pair"], (F, G))
    return errs


# ---------------------------------------------------------------------------
# suspension models


def _close(x: float, want: float, tol: float = AL_TOL) -> bool:
    return abs(x - want) <= tol * max(1.0, abs(want))


def check_al(al: dict, f_plus: float, f_minus: float, f_zero: float, grid_n: int) -> list[str]:
    """Every grid value of each density equals its closed form."""
    want = {
        "f_plus": f_plus,
        "f_minus": f_minus,
        "f_zero": f_zero,
        "discriminant": 4.0 * f_plus * f_minus - f_zero**2,
    }
    errs = []
    for key, w in want.items():
        # f_zero is a difference of products of size f_plus; compare on that scale
        tol = AL_TOL * max(1.0, f_plus, f_minus) / max(1.0, abs(w)) if key == "f_zero" else AL_TOL
        for end in ("min", "max"):
            if not _close(al[key][end], w, tol):
                errs.append(f"{key}.{end} = {al[key][end]!r}, expected {w!r}")
    if al["verdict"] != "anosov_liouville":
        errs.append(f"verdict {al['verdict']}")
    if al["grid_n"] != grid_n:
        errs.append(f"grid {al['grid_n']} != {grid_n}")
    return errs


def weak_directions(A) -> list[np.ndarray]:
    """Chart directions of the weak-stable and weak-unstable foliations on
    a fiber: the kernels of the left eigenvectors of A, since the fiber
    chart is the lattice basis and the forms are the rows of P, P A = D P."""
    w, vecs = np.linalg.eig(np.array(A, dtype=float).T)
    return [np.array([-vecs[1, i], vecs[0, i]]) for i in np.argsort(-w)]


def check_certificate(pre: dict, A, scale_C: float = 10.0, tol: float = CERT_TOL) -> list[str]:
    errs = []
    if pre["outcome"] != "certificate":
        return [f"outcome {pre['outcome']}: {pre['diagnostics']}"]
    obst = pre["obstruction"]
    if obst["verdict"] != "passes_obstruction" or obst["winding_ws"] != [0, 0]:
        errs.append(f"obstruction {obst}")
    # irrational eigen-slopes: no compact leaves, so nothing parallel
    if pre["parallel_verdict"] != "not_parallel":
        errs.append(f"parallel verdict {pre['parallel_verdict']}")
    f0 = math.exp(float(np.mean(pre["scaling"]["log_f"])))
    g0 = math.exp(float(np.mean(pre["scaling"]["log_g"])))
    C2 = scale_C * scale_C
    errs += check_al(pre["final_al"], 2 * C2 * f0 * g0, 2 * f0 * g0 / C2, 0.0,
                     pre["final_al"]["grid_n"])
    if not pre["final_residual"] < tol:
        errs.append(f"final residual {pre['final_residual']!r}")
    if not pre["c1_distance"] < tol:
        errs.append(f"c1 distance {pre['c1_distance']!r}")
    if pre["cone_pair"] is not None:
        fields = [_constant_field(d) for d in weak_directions(A)]
        errs += check_cone(pre["cone_pair"], fields)
    return errs


def _constant_field(d):
    def fn(u, v):
        return d[0] + 0.0 * u + 0.0 * v, d[1] + 0.0 * u + 0.0 * v

    return fn


def check_suspension_case(case, out: dict) -> list[str]:
    """Standard pair at C = 1: f+ = f- = 2, f0 = 0, discriminant 16."""
    errs = []
    for n, al in out["al"].items():
        errs += [f"al n={n}: {e}" for e in check_al(al, 2.0, 2.0, 0.0, int(n))]
    errs += check_certificate(out["prelag"], case.params["A"])
    return errs


# ---------------------------------------------------------------------------
# scaling solves


def spectral_curl_rms(log_f, log_g, a, b) -> float:
    """RMS of d(f a - g b) / du^dv with trigonometric derivatives; a and b are
    (coefficient of du, coefficient of dv) grids."""
    n = log_f.shape[0]
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    k = TWO_PI * k
    f, g = np.exp(log_f), np.exp(log_g)
    w1 = f * a[0] - g * b[0]
    w2 = f * a[1] - g * b[1]
    du_w2 = np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(w2, axis=0), axis=0))
    dv_w1 = np.real(np.fft.ifft(1j * k[None, :] * np.fft.fft(w1, axis=1), axis=1))
    rho = du_w2 - dv_w1
    return math.sqrt(float(np.mean(rho * rho)))


def check_scaling_case(case, sol: dict, tol: float = CERT_TOL) -> list[str]:
    """``sol`` holds log_f, log_g, residual and success.  The planted problem
    is a = e^h dv, b = du; closed iff d/du(f e^h) + d/dv g = 0, solved by
    f = e^-h, g = 1."""
    dim, n = case.params["dim"], case.params["n"]
    h = planted_h(dim, n)
    log_f, log_g = np.asarray(sol["log_f"]), np.asarray(sol["log_g"])
    errs = []
    if log_f.shape != (n, n) or log_g.shape != (n, n):
        return [f"grids {log_f.shape}, {log_g.shape}"]
    if not sol["success"] or not sol["residual"] < tol:
        errs.append(f"residual {sol['residual']!r}, success {sol['success']}")
    zero = np.zeros((n, n))
    rms = spectral_curl_rms(log_f, log_g, (zero, np.exp(h)), (np.ones((n, n)), zero))
    if not rms < tol or abs(rms - sol["residual"]) > 1e-3 * tol:
        errs.append(f"recomputed residual {rms!r} vs reported {sol['residual']!r}")
    f = np.exp(log_f)
    if dim == 1:
        target = np.exp(-h)
        dev = float(np.max(np.abs(f / f.mean() - target / target.mean())))
        if dev > RECOVERY_TOL:
            errs.append(f"f differs from e^-h by {dev:.2e}")
    else:
        # closedness makes the loop integrals of f e^h dv independent of u
        # and those of g du independent of v; pointwise, f e^h may vary
        # along u by d(psi)/dv for any potential psi, and the solver's
        # answer does (by 29% at n = 16)
        fe = (f * np.exp(h)).mean(axis=1)
        g = np.exp(log_g).mean(axis=0)
        for name, loop in (("v-loop integral of f e^h", fe), ("u-loop integral of g", g)):
            dev = float(np.ptp(loop) / loop.mean())
            if dev > RECOVERY_TOL:
                errs.append(f"{name} varies by {dev:.2e}")
    return errs


# ---------------------------------------------------------------------------
# command-line reports

STAGE = {
    "type": "object",
    "required": ["seconds", "ok"],
    "properties": {"seconds": {"type": "number", "minimum": 0}, "ok": {"type": "boolean"}},
}
QSTATS = {
    "type": "object",
    "required": ["min", "max", "argmin"],
    "properties": {"min": {"type": "number"}, "max": {"type": "number"},
                   "argmin": {"type": "array", "items": {"type": "number"}}},
}
LEAF = {
    "type": "object",
    "required": ["point", "cls", "family"],
    "properties": {
        "point": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "cls": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "family": {"type": "boolean"},
    },
}
AL = {
    "type": "object",
    "required": ["grid_n", "f_plus", "f_minus", "f_zero", "discriminant", "verdict"],
    "properties": {
        "grid_n": {"type": "integer"},
        "f_plus": QSTATS, "f_minus": QSTATS, "f_zero": QSTATS, "discriminant": QSTATS,
        "verdict": {"enum": ["anosov_liouville", "liouville_only", "fail"]},
    },
}
# The documented report layout (README "Command line"; docs/config.md),
# written out here so that the check does not use the program's own copy.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "command", "config_digest", "threads", "ok", "stages"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "command": {"enum": ["check-pair", "foliation", "pre-lagrangian", "render", "all"]},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "threads": {"type": "integer", "minimum": 1},
        "ok": {"type": "boolean"},
        "stages": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "check-pair": {"allOf": [STAGE, {"required": ["al"], "properties": {"al": AL}}]},
                "foliation": {"allOf": [STAGE, {
                    "required": ["winding", "compact_leaves", "reeb_annuli"],
                    "properties": {
                        "winding": {"type": "array", "items": {"type": "integer"}},
                        "compact_leaves": {"type": "array", "items": LEAF},
                        "reeb_annuli": {"type": "array", "items": {
                            "type": "object", "required": ["axis", "band"]}},
                    }}]},
                "pre-lagrangian": {"allOf": [STAGE, {
                    "properties": {"prelag": {
                        "type": "object",
                        "required": ["outcome", "obstruction", "parallel_verdict", "cone_pair"],
                        "properties": {"outcome": {"enum": ["certificate", "not_attempted", "failed"]}},
                    }}}]},
                "render": {"allOf": [STAGE, {
                    "required": ["svg", "bytes"],
                    "properties": {"svg": {"type": "string"}, "bytes": {"type": "integer"}}}]},
            },
        },
    },
}

# Closed-form facts of the shipped configs.
CAT_MAP = ((2, 1), (1, 1))
VERTICAL = {
    # two-reeb-band: V = (sin 2 pi u, cos 2 pi u); leaves where sin = 0
    "two-reeb-band": [(0.0, 1), (0.5, -1)],
    # franks-williams: V = (cos 2 pi u, sin 2 pi u); leaves where cos = 0
    "franks-williams": [(0.25, 1), (0.75, -1)],
    # eight-band: the Reeb-band family with c = 1.2, k = 2
    "eight-band": reeb_leaves(1.2, 2),
}
WINDING = {"cat-map": [0, 0], "eight-band": [0, 0], "franks-williams": [1, 0],
           "two-reeb-band": [-1, 0]}
# exit codes from README "Command line": 0 when every verdict passes, 2 when
# one is obstructed or failed
EXIT = {
    ("check-pair", "cat-map"): 0,
    ("pre-lagrangian", "cat-map"): 0,
    ("pre-lagrangian", "franks-williams"): 2,
    ("pre-lagrangian", "eight-band"): 2,
    ("render", "two-reeb-band"): 0,
    ("all", "cat-map"): 0,
    ("all", "eight-band"): 2,
    ("all", "franks-williams"): 2,
}
STAGES = {
    "check-pair": ["check-pair"],
    "pre-lagrangian": ["pre-lagrangian"],
    "render": ["render"],
    "all": ["foliation", "pre-lagrangian", "render"],
}


def check_cli_case(case, rc: int, report: dict | None, svg: str | None) -> list[str]:
    """``report`` is the parsed report.json (None when missing) and ``svg`` the
    rendered file's text (None when missing)."""
    import jsonschema  # here, so that in-process set-up does not pay for it

    cmd, cfg = case.params["command"], case.params["config"]
    want_rc = EXIT.get((cmd, cfg))
    if want_rc is None:
        # a stage that cannot run (no partner foliation) must not cost the
        # report of the stages that can
        if rc not in (0, 2):
            return [f"exit {rc}"]
    elif rc != want_rc:
        return [f"exit {rc}, documented {want_rc}"]
    if report is None:
        return ["no report.json"]
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as e:
        return [f"report does not validate: {e.message}"]
    errs = []
    stages = report["stages"]
    names = STAGES[cmd] + (["check-pair"] if cmd == "all" and cfg == "cat-map" else [])
    if want_rc is None:
        # the pair stage has no partner to work on; it may be recorded as
        # skipped or left out
        stages = {k: v for k, v in stages.items() if k != "pre-lagrangian"}
        names.remove("pre-lagrangian")
    if sorted(stages) != sorted(names):
        errs.append(f"stages {sorted(stages)} != {sorted(names)}")
    if report["ok"] != (rc == 0) or report["ok"] != all(
            s["ok"] for s in report["stages"].values()):
        errs.append("report ok flag disagrees with the exit code or the stages")
    if "check-pair" in stages:
        errs += check_al(stages["check-pair"]["al"], 2.0, 2.0, 0.0, 12)
    if "foliation" in stages:
        fo = stages["foliation"]
        if fo["winding"] != WINDING[cfg]:
            errs.append(f"winding {fo['winding']} != {WINDING[cfg]}")
        if cfg == "cat-map":
            if fo["compact_leaves"] or fo["reeb_annuli"]:
                errs.append("compact leaves on an irrational linear foliation")
        else:
            errs += check_vertical_leaves(fo["compact_leaves"], fo["reeb_annuli"], VERTICAL[cfg])
    if "pre-lagrangian" in stages:
        if "prelag" not in stages["pre-lagrangian"]:
            return errs + ["pre-lagrangian stage without its prelag report"]
        pre = stages["pre-lagrangian"]["prelag"]
        if cfg == "cat-map":
            errs += check_certificate(pre, CAT_MAP)
        elif cfg == "franks-williams":
            o = pre["obstruction"]
            if pre["outcome"] != "not_attempted" or o["verdict"] != "obstructed" \
                    or o["winding_ws"] != [1, 0]:
                errs.append(f"franks-williams verdict {pre['outcome']} {o}")
        elif cfg == "eight-band":
            if pre["outcome"] != "failed" or pre["parallel_verdict"] != "parallel" \
                    or pre["cone_pair"] is not None:
                errs.append(f"eight-band verdict {pre['outcome']} {pre['parallel_verdict']}")
    if "render" in stages:
        if svg is None:
            errs.append("no svg written")
        else:
            errs += svg_problems(svg)
            if len(svg.encode()) != stages["render"]["bytes"]:
                errs.append("svg size differs from the report")
    return errs
