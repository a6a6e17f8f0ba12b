"""Command-line front end: load a run configuration, execute the requested
analysis stages, and write a JSON report in the layout ``REPORT_SCHEMA``
documents (the tests hold every report to it with ``jsonschema``), plus
optional SVG renderings.  Exit code 0 when every requested verdict passes, 2
when a verdict is obstructed or failed, 1 for tool errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import AllabError, __version__
from .anosov import FlowModel, suspension_model, weak_foliations_on_torus
from .config import RunConfig, load_config
from .contact import al_check
from .foliation import Foliation2, compact_leaves, reeb_annuli, winding
from .prelag import AL_GRID, pre_lagrangian_certificate
from .render import render_foliation

COMMANDS = ("check-pair", "foliation", "pre-lagrangian", "render", "all")

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "command", "config_digest", "threads", "ok", "stages"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "command": {"enum": list(COMMANDS)},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
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


class ToolError(AllabError):
    pass


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
    if model is not None:
        return weak_foliations_on_torus(model, model.fiber(cfg.fiber_z))
    G = None
    if cfg.partner_v1 is not None:
        G = Foliation2(cfg.partner_v1, cfg.partner_v2)
    return Foliation2(cfg.v1, cfg.v2), G


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
            rep = al_check(model.standard_pair(), n=AL_GRID)
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
            if model is not None:
                rep = pre_lagrangian_certificate(model, model.fiber(cfg.fiber_z))
                ok = rep.outcome == "certificate"
            else:
                if G is None:
                    if command == "all":
                        return {"skipped": "needs a partner foliation"}, True
                    raise ToolError(
                        "pre-lagrangian on foliation data needs a partner foliation"
                    )
                rep = pre_lagrangian_certificate(foliations=(F, G))
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

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
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
