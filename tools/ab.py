#!/usr/bin/env python3
"""Paired A/B ledger for the repo benchmark (perfbench/run.py).

Builds a parent and a change revision from two `git archive` trees, each
with its own build directory (CARGO_TARGET_DIR, which perfbench/run.py
honours), then runs N alternating parent/change pairs per workload and
writes one JSON ledger with, per metric: the raw arrays, the medians, the
interquartile ranges, the median paired ratio (change / parent) and how
many pairs the change won.

    python3 tools/ab.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --workloads unary_small --seconds 20 --trace 0 --out BENCH_16.json

`--change WORKTREE` measures the working tree (tracked files and the
index, via `git stash create`, whose commit is not kept anywhere; each
run entry therefore also records the git tree hash of both sides' src/,
which a reader can compare with `git rev-parse <commit>:src`). Pair i uses seed `--seed-base + i`; even
pairs run the parent first, odd pairs the change, so drift over time
falls on both sides alike. Re-running with the same --out merges: a run
with the same (workload, trace, seconds, tag) replaces the earlier one,
others are kept; --tag names a separate set, e.g. a held-out seed. Trees and builds live under --work and are reused when the
revision is unchanged.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, q3) by linear interpolation between order statistics
    (the 'inclusive' method: q1 of [1, 2, 3, 4] is 1.75)."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def iqr(values):
    q1, q3 = quartiles(values)
    return q3 - q1


def summarize(parent, change, better):
    """Per-metric ledger entry for paired samples (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, non-empty paired arrays")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    if better == "lower":
        wins = sum(1 for p, c in zip(parent, change) if c < p)
    else:
        wins = sum(1 for p, c in zip(parent, change) if c > p)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    return {
        "better": better,
        "parent": list(parent),
        "change": list(change),
        "median_parent": med_p,
        "median_change": med_c,
        "iqr_parent": iqr(parent),
        "iqr_change": iqr(change),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "wins": wins,
        "pairs": len(parent),
        # The claim test: better in the median by more than the parent's
        # own interquartile spread.
        "beyond_parent_iqr": (med_p - med_c if better == "lower" else med_c - med_p)
        > iqr(parent),
    }


def directions(benchmark):
    """metric name -> 'lower' | 'higher', from a BENCHMARK.json document."""
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in benchmark.get(key, []):
            out[m["name"]] = m["better"]
    return out


def summarize_run(parent_results, change_results, dirs):
    """Ledger entries for every metric present in every result of both
    sides. Results are perfbench/run.py result objects."""
    names = None
    for r in parent_results + change_results:
        present = set(r.get("metrics", {}))
        names = present if names is None else names & present
    metrics = {}
    for name in sorted(names or ()):
        if name not in dirs:
            continue
        p = [r["metrics"][name]["value"] for r in parent_results]
        c = [r["metrics"][name]["value"] for r in change_results]
        metrics[name] = summarize(p, c, dirs[name])
    return metrics


def fail_ratio(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else None


# ------------------------------------------------------------- the runs

def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def resolve(rev):
    if rev == "WORKTREE":
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", rev + "^{commit}")


def export_tree(commit, dest):
    """Unpack `git archive <commit>` into dest (reused if already there)."""
    stamp = dest / ".ab_commit"
    if stamp.is_file() and stamp.read_text().strip() == commit:
        return
    if dest.exists():
        subprocess.run(["rm", "-rf", str(dest)], check=True)
    dest.mkdir(parents=True)
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                          check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    stamp.write_text(commit + "\n")


def run_once(tree, build, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: no result for {workload} seed {seed}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="WORKTREE",
                    help="git revision, or WORKTREE (default)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="unary_small,unary_ingest,unary_fetch")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--tag", default="", help="names a separate set of runs")
    ap.add_argument("--work", default=os.environ.get("AB_WORK", "/tmp/dpurpc-ab"),
                    help="directory for the two trees and their builds")
    ap.add_argument("--out", required=True, help="ledger JSON (merged if present)")
    args = ap.parse_args()

    work = Path(args.work).resolve()
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        commit = resolve(rev)
        tree = work / side
        export_tree(commit, tree)
        sides[side] = {"rev": rev, "commit": commit, "tree": tree,
                       "build": work / f"{side}-build",
                       "src_tree": git("rev-parse", commit + ":src")}
    dirs = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))

    out_path = Path(args.out)
    ledger = json.loads(out_path.read_text()) if out_path.is_file() else {}
    ledger["about"] = ("Paired A/B runs of perfbench/run.py written by "
                       "tools/ab.py: per metric the raw arrays (pair i at "
                       "index i), medians, IQRs, median change/parent ratio "
                       "and the change's win count.")
    ledger["parent"] = sides["parent"]["commit"]
    ledger["change"] = sides["change"]["commit"]
    runs = ledger.setdefault("runs", [])

    for workload in args.workloads.split(","):
        results = {"parent": [], "change": []}
        order = []
        seeds = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            seeds.append(seed)
            order.append(first[0])
            for side in first:
                s = sides[side]
                r = run_once(s["tree"], s["build"], workload, seed,
                             args.seconds, args.trace)
                results[side].append(r)
                val = r["metrics"].get("cpu_us_per_req", {}).get("value")
                print(f"ab: {workload} seed {seed} {side}: "
                      f"exit {r['exit_code']} cpu_us_per_req {val}",
                      file=sys.stderr, flush=True)
        entry = {
            "workload": workload,
            "tag": args.tag,
            "parent_commit": sides["parent"]["commit"],
            "change_commit": sides["change"]["commit"],
            "src_tree": {side: s["src_tree"] for side, s in sides.items()},
            "trace": args.trace,
            "seconds": args.seconds,
            "seeds": seeds,
            "first": order,
            "correct": all(r.get("correct") and r["exit_code"] == 0
                           for side in results.values() for r in side),
            "fail_ratio": {side: fail_ratio(rs) for side, rs in results.items()},
            "metrics": summarize_run(results["parent"], results["change"], dirs),
        }
        key = (workload, args.trace, args.seconds, args.tag)
        runs[:] = [r for r in runs
                   if (r["workload"], r["trace"], r["seconds"], r.get("tag", ""))
                   != key]
        runs.append(entry)
        out_path.write_text(json.dumps(ledger, indent=1) + "\n")
        for name, m in entry["metrics"].items():
            print(f"ab: {workload} {name}: {m['median_parent']:.4g} -> "
                  f"{m['median_change']:.4g} (ratio {m['median_ratio']}, "
                  f"wins {m['wins']}/{m['pairs']}, parent IQR "
                  f"{m['iqr_parent']:.3g})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
