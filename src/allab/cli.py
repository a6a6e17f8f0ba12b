"""Command-line front end: load a run configuration, execute the requested
analysis stages, and write a JSON report, checked against ``REPORT_SCHEMA``,
plus optional SVG renderings.  Exit code 0 when every requested verdict
passes, 2 when a verdict is obstructed or failed, 1 for tool errors.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import tempfile
import time

import numpy as np

from . import AllabError, __version__, library
from .anosov import FlowModel, suspension_model, weak_foliations_on_torus
from .config import RunConfig, load_config
from .contact import al_check
from .foliation import Foliation2, SlopeSearch, compact_leaves, reeb_annuli, winding
from .prelag import pre_lagrangian_certificate
from .render import render_foliation

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "command", "config_digest", "threads", "ok", "stages"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "command": {"type": "string"},
        "config_digest": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "ok": {"type": "boolean"},
        "stages": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["seconds", "ok"],
                "properties": {
                    "seconds": {"type": "number"},
                    "ok": {"type": "boolean"},
                },
            },
        },
    },
}

COMMANDS = ("check-pair", "foliation", "pre-lagrangian", "render", "all")


class ToolError(AllabError):
    pass


# JSON Schema's types, as the draft 2020-12 validators decide them: a bool is
# neither an integer nor a number, and a float with no fractional part is an
# integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {"$schema", "type", "required", "properties", "additionalProperties", "minimum"}


def _validate(value, schema: dict, where: str = "report"):
    """Check value against schema as JSON Schema would, for the keywords
    ``REPORT_SCHEMA`` uses (``$schema`` is an annotation); any other keyword
    is refused, so that it cannot go unchecked.  Raises ToolError naming the
    path of the first violation."""
    if unknown := schema.keys() - _KEYWORDS:
        raise ToolError(f"the schema at {where} uses unsupported keywords {sorted(unknown)}")
    if "type" in schema:
        kind = schema["type"]
        if not isinstance(kind, str) or kind not in _TYPES:
            raise ToolError(f"the schema at {where} uses the unsupported type {kind!r}")
        if not _TYPES[kind](value):
            raise ToolError(f"{where} is not of type {kind!r}")
    if "minimum" in schema and _TYPES["number"](value) and value < schema["minimum"]:
        raise ToolError(f"{where} is less than the minimum of {schema['minimum']!r}")
    if not isinstance(value, dict):
        return
    for key in schema.get("required", ()):
        if key not in value:
            raise ToolError(f"{where} lacks {key!r}")
    properties, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
    for key, item in value.items():
        if key in properties:
            _validate(item, properties[key], f"{where}.{key}")
        elif extra is False:
            raise ToolError(f"{where} has the unexpected key {key!r}")
        elif extra is not True:
            _validate(item, extra, f"{where}.{key}")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".allab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_model(cfg: RunConfig) -> FlowModel | None:
    if cfg.matrix is None:
        return None
    A = ((cfg.matrix[0], cfg.matrix[1]), (cfg.matrix[2], cfg.matrix[3]))
    return suspension_model(A)


def _build_foliations(
    cfg: RunConfig, model: FlowModel | None
) -> tuple[Foliation2, Foliation2 | None]:
    if cfg.foliation_source == "model":
        if model is None:
            raise ToolError("foliation source 'model' but no model is configured")
        return weak_foliations_on_torus(model, model.fiber(cfg.fiber_z))
    if cfg.foliation_source == "builtin":
        return library.BUILTINS[cfg.builtin]()
    F = Foliation2(cfg.v1, cfg.v2)
    G = None
    if cfg.partner_v1 is not None:
        G = Foliation2(cfg.partner_v1, cfg.partner_v2)
    return F, G


def _leaf_dict(leaf):
    return {
        "point": [float(c) for c in leaf.point],
        "cls": list(leaf.cls),
        "family": bool(leaf.family),
    }


@np.errstate(all="ignore")  # a domain error gives NaN, which the kernels refuse
def run(cfg: RunConfig, command: str, out_dir: str) -> tuple[int, dict]:
    if command not in COMMANDS:
        raise ToolError(f"unknown command {command!r}")
    os.makedirs(out_dir, exist_ok=True)
    model = _build_model(cfg)
    stages: dict[str, dict] = {}

    def stage(name, fn):
        t0 = time.monotonic()
        payload, ok = fn()
        payload["seconds"] = round(time.monotonic() - t0, 3)
        payload["ok"] = ok
        stages[name] = payload

    wants = (
        [command]
        if command != "all"
        else (["check-pair"] if model is not None else [])
        + ["foliation", "pre-lagrangian", "render"]
    )

    if "check-pair" in wants:
        if model is None:
            raise ToolError("check-pair needs a suspension model in the config")

        def check_pair():
            rep = al_check(model.standard_pair(), n=cfg.grid)
            return {"al": rep.to_dict()}, rep.verdict == "anosov_liouville"

        stage("check-pair", check_pair)

    if {"foliation", "pre-lagrangian", "render"} & set(wants):
        F, G = _build_foliations(cfg, model)

    if "foliation" in wants:

        def foliation():
            leaves = compact_leaves(F)
            annuli = reeb_annuli(F, leaves)
            return {
                "winding": list(winding(F)),
                "compact_leaves": [_leaf_dict(l) for l in leaves],
                "reeb_annuli": [
                    {"axis": a.axis, "band": [float(b) for b in a.band]}
                    for a in annuli
                ],
            }, True

        stage("foliation", foliation)

    if "pre-lagrangian" in wants:

        def prelag():
            search = SlopeSearch(max_denominator=cfg.max_denominator)
            if model is not None:
                rep = pre_lagrangian_certificate(
                    model,
                    model.fiber(cfg.fiber_z),
                    scale_C=cfg.scale_c,
                    solver_n=cfg.solver_grid,
                    grid_n=cfg.grid,
                    tol=cfg.tolerance,
                    slope_search=search,
                )
                ok = rep.outcome == "certificate"
            else:
                if G is None:
                    if command == "all":
                        return {"skipped": "needs a partner foliation"}, True
                    raise ToolError(
                        "pre-lagrangian on foliation data needs a partner foliation"
                    )
                rep = pre_lagrangian_certificate(
                    foliations=(F, G),
                    scale_C=cfg.scale_c,
                    tol=cfg.tolerance,
                    slope_search=search,
                )
                ok = (
                    rep.outcome == "not_attempted"
                    and rep.obstruction is not None
                    and rep.obstruction.verdict == "passes_obstruction"
                )
            return {"prelag": rep.to_dict()}, ok

        stage("pre-lagrangian", prelag)

    if "render" in wants:

        def render():
            svg = render_foliation(F)
            path = os.path.join(out_dir, cfg.svg_name)
            _atomic_write(path, svg)
            return {"svg": cfg.svg_name, "bytes": len(svg)}, True

        stage("render", render)

    ok = all(s["ok"] for s in stages.values())
    report = {
        "version": __version__,
        "command": command,
        "config_digest": cfg.digest,
        "threads": os.cpu_count() or 1,
        "ok": ok,
        "stages": stages,
    }
    _validate(report, REPORT_SCHEMA)
    _atomic_write(
        os.path.join(out_dir, cfg.report_name),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    return (0 if ok else 2), report


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as any tool error does
        raise ToolError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="allab",
        description="bicontact pair checks, torus foliation analysis, and "
        "pre-Lagrangian certificates",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--grid")
    parser.add_argument("--scale-C", dest="scale_c")
    parser.add_argument("--tolerance")

    try:
        args = parser.parse_args(argv)
        # a flag replaces the [analysis] key it is named after, and is
        # checked as that key
        analysis = {
            k: v for k in ("grid", "scale_c", "tolerance") if (v := getattr(args, k)) is not None
        }
        cfg = load_config(args.config, analysis)
        code, report = run(cfg, args.command, args.out)
    except (AllabError, OSError) as e:
        print(f"allab: {e}", file=sys.stderr)
        return 1
    for name, s in report["stages"].items():
        print(f"{name}: {'ok' if s['ok'] else 'FAIL'} ({s['seconds']:.3f}s)")
    print(f"report: {os.path.join(args.out, cfg.report_name)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
