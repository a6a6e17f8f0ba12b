"""Run configuration: a small INI-style file describing a model, foliation
data, analysis parameters, and output names.  Validation reports every
violation at once instead of stopping at the first.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from . import AllabError
from .expr import Expr, ExprError, parse_expr
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
    "analysis": {"grid", "scale_c", "tolerance"},
    "output": {"report", "svg"},
}


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
    grid: int
    scale_c: float
    tolerance: float
    report_name: str
    svg_name: str


def load_config(path: str, analysis: dict[str, str] | None = None) -> RunConfig:
    """Read and check the file at path.  ``analysis`` holds ``[analysis]``
    values, such as the command line's flags, that replace the file's before
    the check, so they are checked and reported as the keys they replace."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None)
    violations: list[str] = []
    try:
        parser.read_string(text, source=path)
    except configparser.Error as e:
        raise ConfigError([f"parse error: {e}"]) from e
    if analysis:
        parser.read_dict({"analysis": analysis})

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

    def get_float(section, key, default, positive=False):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            v = float(raw)
        except ValueError:
            violations.append(f"{section}.{key}: not a number: {raw!r}")
            return default
        if not math.isfinite(v):
            violations.append(f"{section}.{key}: not a finite number: {raw!r}")
            return default
        if positive and v <= 0:
            violations.append(f"{section}.{key}: must be positive, got {v}")
        return v

    def get_int(section, key, default):  # a positive integer
        raw = get(section, key)
        if raw is None:
            return default
        try:
            v = int(raw)
        except ValueError:
            violations.append(f"{section}.{key}: not an integer: {raw!r}")
            return default
        if v <= 0:
            violations.append(f"{section}.{key}: must be positive, got {v}")
        return v

    def get_expr(section, key):
        raw = get(section, key)
        if raw is None:
            return None
        try:
            return parse_expr(raw)
        except ExprError as e:
            violations.append(f"{section}.{key}: does not parse: {e}")
            return None

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
            parts = raw.replace(",", " ").split()
            if len(parts) != 4 or not all(p.lstrip("-").isdigit() for p in parts):
                violations.append(f"model.matrix: expected four integers, got {raw!r}")
            else:
                matrix = tuple(int(p) for p in parts)
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
    if (partner_v1 is None) != (partner_v2 is None):
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
        grid=get_int("analysis", "grid", 12),
        scale_c=get_float("analysis", "scale_c", 10.0, positive=True),
        tolerance=get_float("analysis", "tolerance", 1e-6, positive=True),
        report_name=get("output", "report", "report.json"),
        svg_name=get("output", "svg", "foliation.svg"),
    )

    if violations:
        raise ConfigError(violations)
    if analysis:  # after a NUL; with none, the digest is the file's own
        text += "\0" + "\n".join(f"{k} = {v}" for k, v in sorted(analysis.items()))
    return RunConfig(digest=hashlib.sha256(text.encode()).hexdigest(), **values)
