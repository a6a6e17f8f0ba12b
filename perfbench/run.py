"""allab benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Untraced (``--trace 0``): three fresh worker processes each import allab
and build the seeded inputs; the time from launch to their READY line gives
``setup_s`` (median of three; on cli-cold, where every command is a fresh
process, three runs of ``python -m allab.cli --help`` instead).  The last one goes on to run whole passes over
the case list for S seconds; ``pass_s`` is the median pass, each case scaled
to a reference host speed (hostspeed.py), and ``peak_rss_mb`` the peak
resident set of the process that ran the cases (on cli-cold, of the largest
command process).

Traced (``--trace 1``): one worker, started with ``-X importtime``, with
allab's public functions wrapped; prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from cases import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_start(deadline: float) -> float:
    """Seconds for a fresh ``python -m allab.cli --help``: interpreter start
    and allab's imports, the set-up every cli-cold command pays."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "allab.cli", "--help"], cwd=ROOT, env=_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"allab --help exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def launch(args, out_dir: str, index: int, probe: bool, deadline: float):
    """Start one worker; return (seconds from launch to READY, its JSON
    result or None for a probe, its stderr text)."""
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out_dir]
    if probe:
        cmd.append("--probe")
    if args.trace:
        cmd.append("--trace")
    env = _env()
    err_path = os.path.join(out_dir, f"worker-{index}.stderr")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(err_path) as fh:
        err_text = fh.read()
    if first.strip() != "READY" or code != 0:
        tail = "\n".join(err_text.strip().splitlines()[-5:])
        raise BenchError(f"worker exited {code} (first line {first.strip()!r}): {tail}")
    if probe:
        return ready, None, err_text
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready, json.loads(lines[-1]), err_text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    need = [os.path.join(ROOT, "src", "allab", "__init__.py")]
    if args.workload == "cli-cold":
        need.append(os.path.join(ROOT, "configs"))
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not an allab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        if args.trace:
            _, res, err_text = launch(args, out_dir, 0, False, deadline)
            metrics = res["layers"]
            if args.workload != "cli-cold":
                # set-up imports allab once per process: set-up plus one pass
                import tracer

                metrics["cli.import_s"], metrics["cli.import_scipy_s"] = \
                    tracer.import_times(err_text)
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())}
        else:
            if args.workload == "cli-cold":
                # each command process is the workload's process here
                setups = [cli_start(deadline) for _ in range(SETUP_SAMPLES)]
                _, res, _ = launch(args, out_dir, 0, False, deadline)
            else:
                setups = []
                for i in range(SETUP_SAMPLES):
                    ready, res, _ = launch(args, out_dir, i, i < SETUP_SAMPLES - 1, deadline)
                    setups.append(ready)
            print("set-up s " + " ".join(f"{s:.3f}" for s in setups))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s": {"value": statistics.median(res["scaled"]), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1

    passes = res["passes"]
    cals = res["calibrations"]
    print(f"perfbench {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{res['attempted'] // len(passes)} cases; wall s "
          + " ".join(f"{p:.3f}" for p in passes) + "; scaled s "
          + " ".join(f"{p:.3f}" for p in res["scaled"])
          + f"; host calibration s {min(cals):.3f} to {max(cals):.3f}")
    for line in res["unexpected"]:
        print(f"  wrong: {line}")
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("calls_per_expr", "calls_per_foliation", "accepted_ratio")):
        return "ratio"
    if name.endswith("svg_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
