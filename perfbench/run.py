#!/usr/bin/env python3
"""Offload-datapath benchmark: builds the perfbench binary from this source
tree, runs one workload, checks the result and prints it.

    python3 perfbench/run.py --workload unary_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
Each run's raw per-phase values are kept in `.bench_runs/`. The frozen
rates and limits live in perfbench/config.json.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUNS = ROOT / ".bench_runs"
BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark and the program libraries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def expected_metrics(trace):
    """(name, unit) pairs the run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-reply", action="store_true",
                    help="self-test: every host handler answers wrongly")
    args = ap.parse_args()

    config = json.loads((HERE / "config.json").read_text())
    wl = config["workloads"].get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; have {sorted(config['workloads'])}")
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--low-rps", str(wl["low_rps"]), "--high-rps", str(wl["high_rps"]),
           "--ladder", ",".join(str(r) for r in wl["ladder_rps"]),
           "--p99-limit-us", str(wl["p99_limit_us"])]
    if args.wrong_reply:
        cmd.append("--wrong-reply")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unreadable result line: {lines[-1][:200]}")

    RUNS.mkdir(exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")

    # Every metric the benchmark declares, with its unit and a finite value.
    metrics = result.get("metrics", {})
    for name, unit in expected_metrics(args.trace):
        m = metrics.get(name)
        if m is None or m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
            fail(f"metric {name} [{unit}] missing or malformed: {m}")

    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = {name: metrics[name] for name, _ in expected_metrics(args.trace)}
    print(json.dumps(out))
    ok = proc.returncode == 0 and result["correct"] and result["attempted"] >= 1
    if not ok:
        print(f"perfbench: run not correct (exit code {proc.returncode}, "
              f"{result['failed']} of {result['attempted']} failed; see {record})",
              file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
