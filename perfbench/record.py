#!/usr/bin/env python3
"""Run workloads over several seeds and summarize each metric.

    python3 perfbench/record.py [--workloads dsweep,headline]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--write]

For every workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the
distance between the quartiles as a share of the median.  With
`--write` (untraced only) the summary and the run's provenance
(commit, compiler, build type, nproc, seeds) go to
perfbench/trajectory.json, one entry per workload.  Runs go through
perfbench/run.py, one after another.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def provenance():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                ver = subprocess.run([cxx, "--version"],
                                     capture_output=True, text=True)
                compiler = ver.stdout.splitlines()[0] if ver.stdout \
                    else cxx
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0
        else "unknown",
        "compiler": compiler,
        "build_type": "Release",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for wl in args.workloads.split(","):
        values, failed = {}, 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
            print(f"{wl} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}"
                      for k, m in res["metrics"].items()), flush=True)
        rows = {}
        for name, (unit, v) in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            rows[name] = {"unit": unit, "median": med, "q1": q[0],
                          "q3": q[2], "spread": round(spread, 4)}
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f"  bound {bound}" + ("  OVER" if spread > bound else
                                      "  over 1/3" if spread > bound / 3
                                      else "")
            print(f"  {name:34s} {unit:9s} median {med:<14.6g} "
                  f"q1 {q[0]:<12.6g} q3 {q[2]:<12.6g} "
                  f"spread {spread:.4f}{flag}", flush=True)
        summary[wl] = {"failed": failed, "metrics": rows}

    if args.write and args.trace == 0:
        traj = json.load(open(TRAJECTORY)) if os.path.exists(TRAJECTORY) \
            else {"default_seed": 1, "held_out_seed": 7919,
                  "workloads": {}}
        traj.update(provenance())
        traj.update({"run_seconds": args.seconds, "seeds": seeds,
                     "repetitions": len(seeds)})
        traj["workloads"].update(summary)
        with open(TRAJECTORY, "w") as f:
            json.dump(traj, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
