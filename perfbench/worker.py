"""One workload process: import allab, build the seeded inputs, print READY,
then run whole timed passes over the case list until the time is up, check
every output outside the timed section, and print one JSON line.

Started by run.py; ``--probe`` stops after READY (a set-up sample).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _leaf(leaf) -> dict:
    return {"point": [float(c) for c in leaf.point], "cls": list(leaf.cls),
            "family": bool(leaf.family)}


class FoliationScan:
    """What ``allab all`` does on a torus foliation pair, in process."""

    def __init__(self, out_dir, tracing):
        from allab import expr, foliation, prelag, render

        self.ex, self.fol, self.pre, self.ren = expr, foliation, prelag, render

    def build(self, case):
        from cases import pair_fields

        (f1, f2), (g1, g2), _, _ = pair_fields(case.kind, case.params)
        P, Fol = self.ex.parse_expr, self.fol.Foliation2
        return Fol(P(f1), P(f2)), Fol(P(g1), P(g2))

    def run(self, case, inp):
        F, G = inp
        leaves = self.fol.compact_leaves(F)
        annuli = self.fol.reeb_annuli(F, leaves)
        w = self.fol.winding(F)
        rep = self.pre.pre_lagrangian_certificate(foliations=(F, G))
        return leaves, annuli, w, rep, self.ren.render_foliation(F)

    def check(self, case, out):
        from checks import check_pair_case

        leaves, annuli, w, rep, svg = out
        return check_pair_case(case, {
            "winding": list(w),
            "compact_leaves": [_leaf(lf) for lf in leaves],
            "reeb_annuli": [{"axis": a.axis, "band": list(a.band)} for a in annuli],
            "prelag": rep.to_dict(),
            "svg": svg,
        })


class CertificateSweep:
    """The model-driven route: AL checks at grids 48 and 96, then the
    certificate pipeline on a fiber."""

    def __init__(self, out_dir, tracing):
        from allab import anosov, contact, prelag

        self.an, self.con, self.pre = anosov, contact, prelag

    def build(self, case):
        model = self.an.suspension_model(case.params["A"])
        return model, model.fiber(case.params["z"])

    def run(self, case, inp):
        model, sigma = inp
        pair = model.standard_pair()
        al = {n: self.con.al_check(pair, n=n) for n in (48, 96)}
        return al, self.pre.pre_lagrangian_certificate(model, sigma)

    def check(self, case, out):
        from checks import check_suspension_case

        al, rep = out
        return check_suspension_case(case, {
            "al": {n: r.to_dict() for n, r in al.items()}, "prelag": rep.to_dict()})


class ScalingSolve:
    """The grid solver alone on planted closedness problems."""

    def __init__(self, out_dir, tracing):
        from allab import expr, geom, prelag

        self.ex, self.geom, self.pre = expr, geom, prelag

    def build(self, case):
        from cases import planted_text

        ex, g = self.ex, self.geom
        a = g.one_form(g.UV, ex.ZERO, ex.parse_expr(planted_text(case.params["dim"])))
        b = g.one_form(g.UV, ex.ONE, ex.ZERO)
        return a, b, case.params["n"]

    def run(self, case, inp):
        a, b, n = inp
        return self.pre.scaling_solve(a, b, n=n)

    def check(self, case, sol):
        from checks import check_scaling_case

        return check_scaling_case(case, {"log_f": sol.log_f, "log_g": sol.log_g,
                                         "residual": sol.residual, "success": sol.success})


class CliCold:
    """One fresh ``python -m allab.cli`` process per command."""

    def __init__(self, out_dir, tracing):
        self.out_dir = os.path.join(out_dir, "cli")
        os.makedirs(self.out_dir, exist_ok=True)
        self.tracing = tracing
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.children: list[dict] = []  # traced: one record per process

    def build(self, case):
        cmd, cfg = case.params["command"], case.params["config"]
        path = os.path.join(ROOT, "configs", cfg + ".cfg")
        if not os.path.isfile(path):
            raise FileNotFoundError(path)
        out = os.path.join(self.out_dir, f"{cmd}-{cfg}")
        return [cmd, "--config", path, "--out", out], out, cfg

    def before_pass(self, inputs):
        for _, out, _ in inputs:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, case, inp):
        args, out, cfg = inp
        if not self.tracing:
            proc = subprocess.run([sys.executable, "-m", "allab.cli", *args], env=self.env,
                                  cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            return {"rc": proc.returncode, "out": out, "cfg": cfg, "child": None}
        # traced: the shim wraps allab's functions inside the child and
        # -X importtime reports its imports; both go to files beside the out dir
        stem = out + f".{len(self.children)}"
        with open(stem + ".stderr", "w") as err:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", os.path.join(HERE, "clishim.py"),
                 stem + ".spans.json", *args],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        self.children.append({"stem": stem})
        return {"rc": proc.returncode, "out": out, "cfg": cfg, "child": len(self.children) - 1}

    def check(self, case, res):
        from checks import check_cli_case

        out, cfg = res["out"], res["cfg"]
        report = svg = None
        try:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            pass
        name = cfg + ".svg"
        if report and "render" in report.get("stages", {}):
            name = report["stages"]["render"].get("svg", name)
        try:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                svg = fh.read()
        except FileNotFoundError:
            pass
        if res["child"] is not None:
            self.children[res["child"]]["report"] = report
        return check_cli_case(case, res["rc"], report, svg)


WORKLOADS = {
    "cli-cold": CliCold,
    "foliation-scan": FoliationScan,
    "certificate-sweep": CertificateSweep,
    "scaling-solve": ScalingSolve,
}


def _check(wl, case, ok, out) -> list[str]:
    if not ok:
        return [f"{type(out).__name__}: {str(out)[:200]}"]
    try:
        return wl.check(case, out)
    except Exception as e:  # a malformed output is a failed case, not a crash
        return [f"check raised {type(e).__name__}: {str(e)[:200]}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    # allab first, so that its import time includes numpy as in the CLI
    wl = WORKLOADS[args.workload](args.out, args.trace)
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    import cases

    case_list = cases.build(args.workload, args.seed)
    inputs = [wl.build(c) for c in case_list]
    print("READY", flush=True)
    if args.probe:
        return 0
    import hostspeed

    hostspeed.calibrate()  # first use pays for page faults and lazy set-up
    calibrations = [hostspeed.calibrate()]
    marks = [tr.mark()] if tr else []
    passes, scaled, attempted, failed, unexpected = [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        if hasattr(wl, "before_pass"):
            wl.before_pass(inputs)
        outs, wall, at_ref = [], 0.0, 0.0
        for case, inp in zip(case_list, inputs):
            t0 = time.perf_counter()
            try:
                outs.append((True, wl.run(case, inp)))
            except Exception as e:  # a failing case is counted, the pass goes on
                outs.append((False, e))
            dt = time.perf_counter() - t0
            # each case at the host speed measured on either side of it
            calibrations.append(hostspeed.calibrate())
            wall += dt
            at_ref += hostspeed.scaled(dt, (calibrations[-2] + calibrations[-1]) / 2)
        passes.append(wall)
        scaled.append(at_ref)
        if tr and len(passes) == 1:
            marks.append(tr.mark())
        for case, (ok, out) in zip(case_list, outs):
            attempted += 1
            errs = _check(wl, case, ok, out)
            if errs:
                failed += 1
                if case.known_fault is None:
                    unexpected.append(f"{case.label}: {'; '.join(errs[:3])}")
        del outs
        if time.perf_counter() - start >= args.seconds:
            break

    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    result = {
        "passes": passes,
        "scaled": scaled,
        "calibrations": calibrations,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:20],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if args.trace:
        result["layers"] = _layers(wl, tr, marks, passes, case_list, scaled)
        if not isinstance(wl, CliCold):  # command processes write their own
            tr.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(result), flush=True)
    return 0


def _layers(wl, tr, marks, passes, case_list, scaled) -> dict:
    """Per-layer figures for set-up plus one pass (see tracer.layer_metrics)."""
    import statistics

    import tracer

    n = len(passes)
    cli = {}
    if isinstance(wl, CliCold):
        per_process = []
        stage = {k: 0.0 for k in ("check-pair", "foliation", "pre-lagrangian", "render")}
        imp = [0.0, 0.0]
        for child in wl.children:
            try:
                with open(child["stem"] + ".spans.json", encoding="utf-8") as fh:
                    per_process.append(json.load(fh)["summary"])
            except FileNotFoundError:
                per_process.append({"spans": {}, "counts": {}, "distinct": {}})
            with open(child["stem"] + ".stderr", encoding="utf-8") as fh:
                a, s = tracer.import_times(fh.read())
            imp[0] += a
            imp[1] += s
            for name, st in ((child.get("report") or {}).get("stages") or {}).items():
                if name in stage:
                    stage[name] += st["seconds"]
        allp = tracer.merge(per_process)
        times = {k: {"s": v["s"] / n, "self_s": v["self_s"] / n} for k, v in allp["spans"].items()}
        window = tracer.merge(per_process[:len(case_list)])
        cli = {"cli.import_s": imp[0] / n, "cli.import_scipy_s": imp[1] / n}
        cli.update({f"cli.stage.{k}_s": v / n for k, v in stage.items()})
    else:
        setup = tracer.summarize(tr, None, marks[0])["spans"]
        allp = tracer.summarize(tr, marks[0], None)["spans"]
        times = {}
        for k in set(setup) | set(allp):
            s, p = setup.get(k, {}), allp.get(k, {})
            times[k] = {f: s.get(f, 0.0) + p.get(f, 0.0) / n for f in ("s", "self_s")}
        window = tracer.summarize(tr, None, marks[1])
        # the import figures come from this process's -X importtime output,
        # which run.py reads once the process has ended
    return tracer.layer_metrics(times, window, cli, statistics.median(scaled))


if __name__ == "__main__":
    sys.exit(main())
