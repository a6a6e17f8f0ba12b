"""Tests of the benchmark itself: span arithmetic, the independent checks
against hand-computed values, the case lists, and a one-case smoke run of
each workload.  Run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cases
import checks
import tracer
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# tracer


def test_self_time_of_nested_spans():
    # (name, start, end, parent, id): A holds B and C (overlapping) and D,
    # D holds E
    spans = [
        ("B", 1.0, 3.0, 0, 1),
        ("C", 2.0, 5.0, 0, 2),
        ("E", 6.2, 6.8, 3, 4),
        ("D", 6.0, 7.0, 0, 3),
        ("A", 0.0, 10.0, -1, 0),
    ]
    got = tracer.busy_and_self(spans)
    assert got["A"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)  # union [1,5] and [6,7]
    assert got["B"]["self_s"] == pytest.approx(2.0)
    assert got["C"]["self_s"] == pytest.approx(3.0)
    assert got["D"]["self_s"] == pytest.approx(0.4)
    assert got["E"]["self_s"] == pytest.approx(0.6)
    assert got["A"]["s"] == pytest.approx(10.0)
    assert {k: v["calls"] for k, v in got.items()} == {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1}


def test_busy_time_counts_a_recursive_name_once():
    spans = [("F", 1.0, 2.0, 0, 1), ("F", 0.0, 4.0, -1, 0)]
    got = tracer.busy_and_self(spans)["F"]
    assert got["s"] == pytest.approx(4.0)
    assert got["self_s"] == pytest.approx(4.0)  # 3 outer + 1 inner
    assert got["calls"] == 2


def test_covered_clips_and_merges():
    assert tracer.covered(0.0, 10.0, []) == 0.0
    assert tracer.covered(0.0, 10.0, [(2, 4), (3, 6), (8, 12)]) == pytest.approx(6.0)
    assert tracer.covered(5.0, 6.0, [(0, 1)]) == 0.0


def test_wrapped_calls_record_parents_and_counters():
    tr = tracer.Tracer()

    def inner(x):
        return [0] * x

    wrapped_inner = tr.wrap("m.inner", inner, "points")

    def outer():
        return wrapped_inner(3) + wrapped_inner(2)

    tr.wrap("m.outer", outer)()
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [("m.inner", 0, 1), ("m.inner", 0, 2), ("m.outer", -1, 0)]
    assert tr.counts["m.inner.points"] == 5
    summary = tracer.summarize(tr)
    assert summary["spans"]["m.outer"]["calls"] == 1
    mark = tr.mark()
    wrapped_inner(4)
    assert tracer.summarize(tr, mark)["counts"]["m.inner.points"] == 4
    assert tracer.summarize(tr, None, mark)["spans"]["m.inner"]["calls"] == 2


def test_import_times_from_importtime_output():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.special",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:       500 |       1250 | allab.foliation",
        "import time:        10 |         10 | json",
        "some other line",
    ])
    allab_s, scipy_s = tracer.import_times(text)
    assert allab_s == pytest.approx(1250e-6)
    assert scipy_s == pytest.approx(750e-6)


def test_benchmark_json_names_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    produced = tracer.layer_metrics({}, {"spans": {}, "counts": {}, "distinct": {}}, {}, 1.0)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(produced)
    import run

    for m in bench["per_layer"]:
        assert m["unit"] == run._unit(m["name"])
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)


# ---------------------------------------------------------------------------
# checks against hand-computed values


def test_reeb_leaves_and_annuli_by_hand():
    # c = 2/sqrt(3): asin(1/c) = pi/3, so with k = 1 the leaves sit at
    # multiples of 1/6
    got = checks.reeb_leaves(2 / math.sqrt(3), 1)
    want = [(0.0, 1), (1 / 6, -1), (1 / 3, -1), (0.5, 1), (2 / 3, -1), (5 / 6, -1)]
    assert [s for _, s in got] == [s for _, s in want]
    assert np.allclose([u for u, _ in got], [u for u, _ in want], atol=1e-12)
    bands = checks.annuli_between(got)
    assert np.allclose(bands, [(0, 1 / 6), (1 / 3, 0.5), (0.5, 2 / 3), (5 / 6, 1.0)], atol=1e-12)
    eight = checks.reeb_leaves(1.2, 2)
    assert len(eight) == 12 and len(checks.annuli_between(eight)) == 8


def _report_leaves(expected, shift=0.0):
    return [{"point": [u + shift, 0.0], "cls": [0, s], "family": False} for u, s in expected]


def test_vertical_leaf_check_accepts_truth_and_rejects_a_shift():
    exp = checks.VERTICAL["two-reeb-band"]
    # a leaf at u = 0 may be reported just below 1
    leaves = _report_leaves([(1.0 - 1e-12, 1), (0.5, -1)])
    annuli = [{"axis": "u", "band": [0.5, 1.0 - 1e-12]}, {"axis": "u", "band": [1.0 - 1e-12, 1.5]}]
    assert checks.check_vertical_leaves(leaves, annuli, exp) == []
    assert checks.check_vertical_leaves(_report_leaves(exp, 1e-4), annuli, exp) != []
    assert checks.check_vertical_leaves(leaves, annuli[:1], exp) != []


def test_rk4_closes_a_true_leaf_and_not_a_false_one():
    p = {"m": 2, "eps": 0.04, "b": 0.25, "sigma": 0.65, "v0": 0.1}
    _, _, F, _ = cases.pair_fields("isolated", p)
    on = checks.rk4_misses(F, [(0.0, 0.35), (0.0, 0.6)], (1, 0))
    assert on.max() < 1e-9
    off = checks.rk4_misses(F, [(0.0, 0.4)], (1, 0))
    assert off.max() > 1e-3
    # a rational linear foliation closes after q turns in class (q, p)
    _, _, L, _ = cases.pair_fields("linear", {"eps": 0.03, "rho": 2 / 5, "sigma": 0.7})
    assert checks.rk4_misses(L, [(0.0, 0.1)], (5, 2)).max() < 1e-9


def test_transversality_of_constant_directions():
    def horizontal(u, v):
        return np.ones_like(u), np.zeros_like(v)

    assert checks.min_transverse_sin((0, 1), horizontal) == pytest.approx(1.0)
    assert checks.min_transverse_sin((1, 0), horizontal) == 0.0
    assert checks.check_cone(((0, 1), (1, 1)), [horizontal]) == []
    assert checks.check_cone(((1, 0), (0, 1)), [horizontal]) != []


def _al(fp, fm, f0, n=12):
    def q(x):
        return {"min": x, "max": x, "argmin": [0.0, 0.0, 0.0]}

    return {"grid_n": n, "f_plus": q(fp), "f_minus": q(fm), "f_zero": q(f0),
            "discriminant": q(4 * fp * fm - f0 * f0), "verdict": "anosov_liouville"}


def test_al_check_values():
    assert checks.check_al(_al(2.0, 2.0, 0.0), 2.0, 2.0, 0.0, 12) == []
    assert checks.check_al(_al(2.0, 2.0 + 1e-6, 0.0), 2.0, 2.0, 0.0, 12) != []
    assert checks.check_al(_al(200.0, 0.02, 3e-14), 200.0, 0.02, 0.0, 12) == []


def test_weak_directions_of_the_cat_map():
    # A = [[2, 1], [1, 1]] is symmetric: the unstable eigenvector is
    # (1, (sqrt 5 - 1)/2), and the weak-stable direction is its kernel
    ws, wu = checks.weak_directions(((2, 1), (1, 1)))
    g = (math.sqrt(5) - 1) / 2
    assert abs(ws[0] * 1 + ws[1] * g) < 1e-12  # orthogonal to the left eigenvector
    assert abs(wu[0] * (-g) + wu[1] * 1) < 1e-12


def test_spectral_curl_and_planted_solution():
    n = 16
    h = cases.planted_h(2, n)
    zero, one = np.zeros((n, n)), np.ones((n, n))
    a, b = (zero, np.exp(h)), (one, zero)
    assert checks.spectral_curl_rms(-h, zero, a, b) < 1e-12
    assert checks.spectral_curl_rms(zero, zero, a, b) > 0.1
    for dim in (1, 2):
        case = cases.Case("planted", "x", {"dim": dim, "n": n})
        hh = cases.planted_h(dim, n)
        good = {"log_f": -hh, "log_g": zero, "residual": 0.0, "success": True}
        assert checks.check_scaling_case(case, good) == []
        bad = dict(good, log_f=-0.5 * hh)
        assert checks.check_scaling_case(case, bad) != []


def test_svg_and_cli_report_checks():
    assert checks.svg_problems('<svg xmlns="http://www.w3.org/2000/svg"></svg>') == []
    assert checks.svg_problems("<svg") != []
    case = cases.Case("cli", "check-pair:cat-map", {"command": "check-pair", "config": "cat-map"})
    report = {"version": "0.1.0", "command": "check-pair", "config_digest": "0" * 64,
              "threads": 2, "ok": True,
              "stages": {"check-pair": {"seconds": 0.001, "ok": True, "al": _al(2.0, 2.0, 0.0)}}}
    assert checks.check_cli_case(case, 0, report, None) == []
    assert checks.check_cli_case(case, 1, report, None) != []
    f1 = cases.Case("cli", "all:two-reeb-band", {"command": "all", "config": "two-reeb-band"})
    assert checks.check_cli_case(f1, 1, None, None) != []


# ---------------------------------------------------------------------------
# case lists


def test_case_lists_are_seeded_and_keep_their_shape():
    for w in cases.WORKLOADS:
        assert cases.build(w, 3) == cases.build(w, 3)
    assert cases.build("foliation-scan", 3) != cases.build("foliation-scan", 4)
    for seed in range(20):
        labels = [c.label for c in cases.build("foliation-scan", seed)]
        assert labels == [c.label for c in cases.build("foliation-scan", 0)]
        for c in cases.build("foliation-scan", seed):
            if c.kind == "isolated":
                assert c.params["b"] < c.params["sigma"]
    faults = {w: sorted(c.known_fault for c in cases.build(w, 5) if c.known_fault)
              for w in cases.WORKLOADS}
    assert faults == {"cli-cold": ["F1"], "foliation-scan": [], "certificate-sweep": [],
                      "scaling-solve": ["F2"]}
    # the F2 problem does not depend on the seed
    f2 = [c for c in cases.build("scaling-solve", 7) if c.known_fault]
    assert f2 == [c for c in cases.build("scaling-solve", 8) if c.known_fault]
    for A in cases._hyperbolic_matrices():
        M = np.array(A)
        assert round(np.linalg.det(M)) == 1 and np.trace(M) > 2


# ---------------------------------------------------------------------------
# one case of each workload


@pytest.mark.parametrize("workload, kind", [
    ("foliation-scan", "planted"),
    ("certificate-sweep", "suspension"),
    ("scaling-solve", "planted-1d"),
    ("cli-cold", "cli"),
])
def test_one_case_smoke(workload, kind, tmp_path):
    wl = worker.WORKLOADS[workload](str(tmp_path), False)
    case = min((c for c in cases.build(workload, 1) if c.kind == kind and not c.known_fault),
               key=lambda c: (c.params.get("n", 0), c.params.get("command") != "check-pair"))
    inp = wl.build(case)
    if hasattr(wl, "before_pass"):
        wl.before_pass([inp])
    assert wl.check(case, wl.run(case, inp)) == []


def test_run_refuses_a_directory_without_allab(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "foliation-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
