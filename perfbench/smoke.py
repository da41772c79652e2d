#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (`--smoke`), untraced and traced,
through perfbench/run.py.  Fails unless each run exits 0, reports
zero failed operations, and prints exactly the metrics BENCHMARK.json
lists for its pass, each with its declared unit and each listed in
the metric table of perfbench/README.md.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def table_units():
    """Metric name -> unit, from the README's metric table."""
    text = open(os.path.join(HERE, "README.md"), encoding="utf-8").read()
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", text, re.MULTILINE)
    return {name: unit.strip() for name, unit in rows}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    table = table_units()
    errors = []
    for m in spec["end_to_end"] + spec["per_layer"]:
        if table.get(m["name"]) != m["unit"]:
            errors.append(f"{m['name']}: README table unit "
                          f"{table.get(m['name'])!r} != {m['unit']!r}")
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1",
                   "--seconds", "0.5", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}\n"
                              f"{proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or \
                    res["attempted"] < 1:
                errors.append(f"{tag}: correct={res['correct']} "
                              f"attempted={res['attempted']} "
                              f"failed={res['failed']}\n"
                              f"{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics differ from "
                              f"BENCHMARK.json {group}: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[k for k in got if k in want and got[k] != want[k]]}")
            print(f"{tag}: ok, {res['attempted']} operations",
                  flush=True)
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
