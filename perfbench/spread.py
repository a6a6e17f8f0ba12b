"""Run the benchmark several times per workload, one seed per run, and print
each end-to-end metric's median, quartiles and spread (interquartile range
over median), with the share of failed operations.

    python3 perfbench/spread.py --runs 10 [--workload W ...] [--first-seed N]

Runs one after another; each run's JSON line is appended to
.perfbench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    for w in args.workload or names:
        rows = []
        log = os.path.join(ROOT, ".perfbench_out", f"spread-{w}.jsonl")
        t0 = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            rows.append(res)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(res) + "\n")
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print(f"{w}: {len(rows)} runs in {time.monotonic() - t0:.0f} s, "
              f"correct {all(r['correct'] for r in rows)}, "
              f"failed share {', '.join(f'{s:.4f}' for s in shares)}")
        for m in sorted(rows[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in rows]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(m)
            note = f"  (bound {b}, spread/bound {spread / b:.2f})" if b else ""
            print(f"  {m:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
