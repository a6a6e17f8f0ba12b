"""Run configuration: a small INI-style file describing a model, foliation
data and output names.  Validation reports every violation at once instead of
stopping at the first.
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
    "model": {"type", "matrix", "fiber_z"},
    "foliation": {"source", "builtin", "v1", "v2", "partner_v1", "partner_v2"},
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
    matrix: tuple[int, int, int, int] | None  # None: no suspension model
    fiber_z: float
    foliation_source: str  # model | builtin | field
    builtin: str | None
    v1: Expr | None
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

    model_type = get("model", "type", "none") if parser.has_section("model") else "none"
    if model_type not in ("none", "suspension"):
        violations.append(f"model.type: unknown type {model_type!r}")
        model_type = "none"
    matrix = None
    if model_type == "suspension":
        raw = get("model", "matrix")
        if raw is None:
            violations.append("model.matrix: required for a suspension model")
        else:
            try:
                matrix = tuple(int(p) for p in _numerals(raw).replace(",", " ").split())
            except ValueError:
                matrix = ()
            if len(matrix) != 4:
                violations.append(f"model.matrix: expected four integers, got {raw!r}")
                matrix = None
    fiber_z = get_float("model", "fiber_z", 0.0)

    source = get("foliation", "source")
    if source is None:
        source = "model" if model_type != "none" else None
        if source is None and parser.has_section("foliation"):
            violations.append("foliation.source: required without a model")
    if source is not None and source not in ("model", "builtin", "field"):
        violations.append(f"foliation.source: unknown source {source!r}")
        source = None
    builtin = get("foliation", "builtin")
    if source == "builtin":
        if builtin is None:
            violations.append("foliation.builtin: required when source = builtin")
        elif builtin not in BUILTINS:
            violations.append(
                f"foliation.builtin: unknown name {builtin!r}; "
                f"choose from {', '.join(BUILTINS)}"
            )
    v1 = get_expr("foliation", "v1")
    v2 = get_expr("foliation", "v2")
    if source == "field" and (get("foliation", "v1") is None or get("foliation", "v2") is None):
        violations.append("foliation.v1/v2: required when source = field")
    partner_v1 = get_expr("foliation", "partner_v1")
    partner_v2 = get_expr("foliation", "partner_v2")
    if (get("foliation", "partner_v1") is None) != (get("foliation", "partner_v2") is None):
        violations.append("foliation.partner_v1/partner_v2: declare both or neither")
    if source == "model" and model_type == "none":
        violations.append("foliation.source: 'model' needs a [model] section")

    values = dict(
        matrix=matrix,
        fiber_z=fiber_z,
        foliation_source=source or "model",
        builtin=builtin,
        v1=v1,
        v2=v2,
        partner_v1=partner_v1,
        partner_v2=partner_v2,
        report_name=get_name("report", "report.json"),
        svg_name=get_name("svg", "foliation.svg"),
    )

    if violations:
        raise ConfigError(violations)
    return RunConfig(digest=hashlib.sha256(text.encode()).hexdigest(), **values)
