#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads nsite,most] [--seeds 1-10]
                                [--seconds N] [--traced] [--out record.json]

Runs BENCHMARK.json's command from the repository root once per seed and
workload (untraced), then prints, for every end-to-end metric, the median
and the distance between the first and third quartile as a share of the
median, next to the metric's bound. A spread above a third of its bound
is flagged and makes the exit status 1. `--traced` adds one traced run per
workload on the first seed. `--out` writes a machine record: core count,
rustc version, every run's result line, each metric's quartiles, and the
traced runs' per-layer metrics (including the tracing overhead).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed: {line}")
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(line["metrics"]) != want:
        sys.exit(f"{workload} trace {trace} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(line['metrics']) ^ want)}")
    return line


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    record = {
        "nproc": os.cpu_count(),
        "rustc": rustc.stdout.strip(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    flagged = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            line = run(bench, workload, seed, args.seconds, 0)
            runs.append(line)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(line["metrics"].items())),
                flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "values": values}
            mark = ""
            if spread > m["bound"] / 3:
                mark = "  <-- above a third of the bound"
                flagged = True
            print(f"  {workload:9} {m['name']:18} median {med:14.6g} {m['unit']:6}"
                  f" spread {spread:7.2%} (bound {m['bound']:.0%}){mark}", flush=True)
        entry = {"untraced": summary}
        if args.traced:
            first = seeds(args.seeds)[0]
            entry["traced_seed"] = first
            entry["per_layer"] = run(bench, workload, first, args.seconds, 1)["metrics"]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
