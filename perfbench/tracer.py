"""Spans around allab's public functions, installed from outside the program.

A span is (name, start, end, parent id, own id).  Spans stay in memory and
are written out when the process ends.  A function's busy time is the sum
of its spans that are not nested in a span of the same name; its self time
is each span minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, counter hook); "Class.method" wraps a method
TARGETS = (
    ("cli", "run", None),
    ("expr", "compile_field", "keep_first"),
    ("foliation", "Foliation2.__init__", None),
    ("foliation", "winding", None),
    ("foliation", "integrate_leaf", "points"),
    ("foliation", "return_map", "keep_first"),
    ("foliation", "compact_leaves", "keep_first"),
    ("foliation", "reeb_annuli", None),
    ("foliation", "parallel_compact_leaves", None),
    ("foliation", "cone_separation", "angles"),
    ("contact", "al_check", "grid_points"),
    ("contact", "perturb_pair", None),
    ("contact", "extend_scaling", None),
    ("geom", "restrict", None),
    ("anosov", "suspension_model", None),
    ("anosov", "weak_foliations_on_torus", None),
    ("prelag", "obstruction_test", None),
    ("prelag", "pre_lagrangian_certificate", None),
    ("prelag", "scaling_solve", "iterations"),
    ("prelag", "closedness_objective", "count_evals"),
    ("render", "render_foliation", "svg_bytes"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn, hook=None):
        sig = inspect.signature(fn) if hook in ("grid_points", "angles") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, t0, t1, parent, sid))
            if hook is not None:
                result = self._count(name, hook, sig, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, hook, sig, args, kwargs, result):
        """Work counters; kept cheap, since their time lands in the caller's
        self time."""
        if hook == "keep_first":
            self.kept[name].append(args[0] if args else next(iter(kwargs.values())))
        elif hook == "points":
            self.counts[name + ".points"] += len(result)
        elif hook == "svg_bytes":
            self.counts["render.svg_bytes"] += len(result.encode())
        elif hook == "iterations":
            self.counts[name + ".iterations"] += result.iterations
        elif hook == "count_evals":
            inner = result

            def objective(*a):
                self.counts["prelag.scaling_solve.objective_evals"] += 1
                return inner(*a)

            return objective
        else:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if hook == "grid_points":
                pts = a["points"]
                self.counts[name + ".points"] += a["n"] ** 3 if pts is None else len(pts)
            elif hook == "angles":
                # computed from the arguments: two fields, each sampled on a
                # (4 grid_n) x coarse and a coarse x (4 grid_n) grid
                g = a["search"].grid_n
                self.counts[name + ".angles"] += 2 * 2 * (4 * g) * max(g // 4, 16)
        return result

    def mark(self) -> tuple[int, Counter, dict]:
        """State to subtract later, to split set-up from the timed passes."""
        return len(self.spans), Counter(self.counts), {k: len(v) for k, v in self.kept.items()}

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "summary": summarize(self)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target wherever allab modules look it up: the defining
    module and every module that imported the name with ``from ... import``.
    Only modules already imported are patched."""
    mods = {k: m for k, m in sys.modules.items() if k == "allab" or k.startswith("allab.")}
    for modname, attr, hook in TARGETS:
        mod = mods.get("allab." + modname)
        if mod is None:
            continue
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hook))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, hook)
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)


# ---------------------------------------------------------------------------
# arithmetic on spans


def busy_and_self(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, busy seconds (outermost spans of that name) and self
    seconds (each span minus the union of its direct children)."""
    children = defaultdict(list)
    by_id = {}
    for sp in spans:
        by_id[sp[4]] = sp
        children[sp[3]].append((sp[1], sp[2]))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, t0, t1, parent, sid in spans:
        rec = out[name]
        rec["calls"] += 1
        if not _nested_in_same(name, parent, by_id):
            rec["s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - covered(t0, t1, children.get(sid, []))
    return dict(out)


def _nested_in_same(name, parent, by_id) -> bool:
    while parent in by_id:
        sp = by_id[parent]
        if sp[0] == name:
            return True
        parent = sp[3]
    return False


def covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def distinct(objs) -> int:
    """Distinct values among ``objs``; expression trees too deep to hash
    count by identity."""
    seen, ids = set(), set()
    for o in objs:
        try:
            seen.add(o)
        except RecursionError:
            ids.add(id(o))
    return len(seen) + len(ids)


def summarize(tracer: Tracer, since=None, until=None) -> dict:
    """Per-name span figures, counters and distinct-argument counts between
    two ``mark()`` states (None: the start, or now)."""
    lo_spans, lo_counts, lo_kept = since if since is not None else (0, Counter(), {})
    hi_spans, hi_counts, hi_kept = until if until is not None else tracer.mark()
    counts = Counter(hi_counts)
    counts.subtract(lo_counts)
    kept = {k: distinct(v[lo_kept.get(k, 0):hi_kept.get(k, 0)])
            for k, v in tracer.kept.items()}
    return {"spans": busy_and_self(tracer.spans[lo_spans:hi_spans]),
            "counts": dict(counts), "distinct": kept}


def merge(summaries) -> dict:
    """Sum summaries of separate windows or processes."""
    out = {"spans": defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}),
           "counts": Counter(), "distinct": Counter()}
    for sm in summaries:
        for name, rec in sm["spans"].items():
            for k, v in rec.items():
                out["spans"][name][k] += v
        out["counts"].update(sm["counts"])
        out["distinct"].update(sm["distinct"])
    return {"spans": dict(out["spans"]), "counts": dict(out["counts"]),
            "distinct": dict(out["distinct"])}


def import_times(stderr_text: str) -> tuple[float, float]:
    """From ``python -X importtime`` output: seconds spent importing allab
    (its top-level entries) and, within that process, scipy (scipy entries
    with no scipy ancestor).  The tree is printed children first, so a
    line's parent is the next line below it that is one level shallower."""
    entries = []
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), cumulative))

    def is_(pkg, name):
        return name == pkg or name.startswith(pkg + ".")

    allab = sum(c for d, n, c in entries if d == 0 and is_("allab", n))
    scipy = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if is_("scipy", name) and not any(is_("scipy", n) for _, n in ancestors):
            scipy += cumulative
        ancestors.append((depth, name))
    return allab / 1e6, scipy / 1e6


# ---------------------------------------------------------------------------
# per-layer metrics

# span name -> metric prefix; each gets .s (busy) and .self_s
TIMED = {
    "cli.run": "cli.run",
    "expr.compile_field": "expr.compile_field",
    "foliation.Foliation2.__init__": "foliation.Foliation2",
    "foliation.winding": "foliation.winding",
    "foliation.return_map": "foliation.return_map",
    "foliation.compact_leaves": "foliation.compact_leaves",
    "foliation.reeb_annuli": "foliation.reeb_annuli",
    "foliation.parallel_compact_leaves": "foliation.parallel_compact_leaves",
    "foliation.cone_separation": "foliation.cone_separation",
    "foliation.integrate_leaf": "foliation.integrate_leaf",
    "contact.al_check": "contact.al_check",
    "contact.perturb_pair": "contact.perturb_pair",
    "contact.extend_scaling": "contact.extend_scaling",
    "geom.restrict": "geom.restrict",
    "anosov.suspension_model": "anosov.suspension_model",
    "anosov.weak_foliations_on_torus": "anosov.weak_foliations_on_torus",
    "prelag.obstruction_test": "prelag.obstruction_test",
    "prelag.pre_lagrangian_certificate": "prelag.pre_lagrangian_certificate",
    "prelag.scaling_solve": "prelag.scaling_solve",
    "render.render_foliation": "render.render_foliation",
}
CALLS = ("expr.compile_field", "foliation.return_map", "foliation.compact_leaves",
         "foliation.integrate_leaf", "contact.al_check", "geom.restrict",
         "prelag.scaling_solve")
COUNTERS = ("foliation.integrate_leaf.points", "foliation.cone_separation.angles",
            "contact.al_check.points", "prelag.scaling_solve.iterations",
            "prelag.scaling_solve.objective_evals", "render.svg_bytes")
CLI = ("cli.import_s", "cli.import_scipy_s", "cli.stage.check-pair_s",
       "cli.stage.foliation_s", "cli.stage.pre-lagrangian_s", "cli.stage.render_s")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(times: dict, window: dict, cli: dict, trace_pass_s: float) -> dict:
    """``times``: span figures for set-up plus one pass; ``window``: a summary
    of set-up plus the first pass, for counts; ``cli``: the CLI figures.
    Layers that do not run on a workload read 0."""
    out = {}
    for span, prefix in TIMED.items():
        rec = times.get(span, {})
        out[prefix + ".s"] = rec.get("s", 0.0)
        out[prefix + ".self_s"] = rec.get("self_s", 0.0)
    calls = {k: window["spans"].get(k, {}).get("calls", 0) for k in CALLS}
    for k in CALLS:
        out[k + ".calls"] = calls[k]
    for k in COUNTERS:
        out[k] = window["counts"].get(k, 0)
    d = window["distinct"]
    out["expr.compile_field.calls_per_expr"] = _ratio(
        calls["expr.compile_field"], d.get("expr.compile_field", 0))
    for k in ("foliation.return_map", "foliation.compact_leaves"):
        out[k + ".calls_per_foliation"] = _ratio(calls[k], d.get(k, 0))
    out["contact.al_check.points_per_s"] = _ratio(
        out["contact.al_check.points"], out["contact.al_check.s"])
    out["prelag.scaling_solve.accepted_ratio"] = _ratio(
        out["prelag.scaling_solve.iterations"], out["prelag.scaling_solve.objective_evals"])
    for k in CLI:
        out[k] = cli.get(k, 0.0)
    out["trace.pass_s"] = trace_pass_s
    return out
