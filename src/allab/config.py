"""Run configuration: a small INI-style file naming one subject (a suspension
model, a builtin foliation, or a field and its optional partner) and output
names.  The keys a file sets name its subject.  Validation reports every
violation at once instead of stopping at the first.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

from . import AllabError
from .expr import Expr, ExprError, UnboundVariableError, compile_kernel, parse_expr
from .geom import UV
from .library import BUILTINS


class ConfigError(AllabError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


_SECTIONS = {
    "model": {"matrix", "fiber_z"},
    "foliation": {"builtin", "v1", "v2", "partner_v1", "partner_v2"},
    "output": {"report", "svg"},
}


def _numerals(raw: str) -> str:
    """raw, if it holds ASCII numerals only as written: Python's int and
    float also take '_' between digits and any Unicode decimal digit."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(raw)
    return raw


@dataclass(frozen=True)
class RunConfig:
    digest: str
    matrix: tuple[int, int, int, int] | None  # None: the subject is v1, v2
    fiber_z: float
    v1: Expr | None  # None: the subject is the model's fiber
    v2: Expr | None
    partner_v1: Expr | None
    partner_v2: Expr | None
    report_name: str
    svg_name: str


def load_config(path: str) -> RunConfig:
    """Read and check the file at path."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None)
    violations: list[str] = []
    try:
        parser.read_string(text, source=path)
    except configparser.Error as e:
        raise ConfigError([f"parse error: {e}"]) from e

    for section in parser.sections():
        if section not in _SECTIONS:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                violations.append(f"unknown key {section}.{key}")

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    def get_float(section, key, default):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            v = float(_numerals(raw))
        except ValueError:
            violations.append(f"{section}.{key}: not a number: {raw!r}")
            return default
        if not math.isfinite(v):
            violations.append(f"{section}.{key}: not a finite number: {raw!r}")
            return default
        return v

    def get_name(key, default):  # a file name in the output directory
        name = get("output", key, default)
        if name in ("", ".", "..") or os.path.basename(name) != name:
            violations.append(
                f"output.{key}: must be a file name in the output directory, got {name!r}"
            )
        return name

    def get_expr(section, key):
        raw = get(section, key)
        if raw is None:
            return None
        try:
            e = parse_expr(raw)
        except ExprError as err:
            violations.append(f"{section}.{key}: does not parse: {err}")
            return None
        try:  # cached: the Foliation2 built from e does not compile it again
            compile_kernel(e, UV)
        except UnboundVariableError as err:
            violations.append(f"{section}.{key}: {err}; fields use u and v")
            return None
        except ExprError as err:  # too deep to compile
            violations.append(f"{section}.{key}: {err}")
            return None
        return e

    has = parser.has_option
    model = has("model", "matrix")
    matrix = None
    if model:
        raw = get("model", "matrix")
        try:
            matrix = tuple(int(p) for p in _numerals(raw).replace(",", " ").split())
        except ValueError:
            matrix = ()
        if len(matrix) != 4:
            violations.append(f"model.matrix: expected four integers, got {raw!r}")
            matrix = None
    fiber_z = get_float("model", "fiber_z", 0.0)
    if has("model", "fiber_z") and not model:
        violations.append("model.fiber_z without model.matrix: it places the model's fiber")

    builtin = get("foliation", "builtin")
    if builtin is not None and builtin not in BUILTINS:
        violations.append(
            f"foliation.builtin: unknown name {builtin!r}; "
            f"choose from {', '.join(BUILTINS)}"
        )
    keys = ("v1", "v2", "partner_v1", "partner_v2")
    fields = [get_expr("foliation", k) for k in keys]

    # one subject: the model's fiber, a builtin, or a field and its partner
    given = [f"foliation.{k}" for k in ("builtin",) + keys if has("foliation", k)]
    if model and given:
        violations.append(f"model.matrix with {', '.join(given)}: a config has one subject")
    if builtin is not None and given[1:]:
        violations.append(f"{', '.join(given)}: a builtin names its own fields")
    for a, b in zip(keys, ("v2", "v1", "partner_v2", "partner_v1")):
        if has("foliation", a) and not has("foliation", b):
            violations.append(f"foliation.{a} without foliation.{b}: a field has two components")
    if not (model or builtin is not None or has("foliation", "v1") or has("foliation", "v2")):
        violations.append(
            "no subject: give model.matrix, foliation.builtin, or foliation.v1 and v2"
        )

    if builtin in BUILTINS:
        F, G = BUILTINS[builtin]()
        fields = [F.V1, F.V2] + ([G.V1, G.V2] if G is not None else [None, None])

    values = dict(
        zip(keys, fields),
        matrix=matrix,
        fiber_z=fiber_z,
        report_name=get_name("report", "report.json"),
        svg_name=get_name("svg", "foliation.svg"),
    )

    if violations:
        raise ConfigError(violations)
    return RunConfig(digest=hashlib.sha256(text.encode()).hexdigest(), **values)
