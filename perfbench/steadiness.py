#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json on every workload with
seeds 1-10, untraced, in two sets, and fails when:

- a spread is at or above its metric's bound, in either set. The spread
  is the distance between the first and third quartile
  (statistics.quantiles(values, n=4)) as a share of the median. One at
  or above a third of the bound is flagged "wide";
- a metric's median in the second set is worse than in the first by
  more than its bound;
- a deterministic end-to-end metric (design, accuracy, virtual-cycle
  latency, goodput) differs between the two runs of one seed;
- a per-layer count differs between two traced runs of seed 1.

The traced run's end-to-end figures against the untraced run's of the
same seed are the tracing overhead, reported per workload.

Run from the repository root (about 40 minutes at run_seconds 20):

    python3 perfbench/steadiness.py

It writes perfbench/out/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2
OUT = "perfbench/out/steadiness.json"

# End-to-end metrics that are pure functions of the seed.
DETERMINISTIC = [
    "tm_accuracy",
    "design_luts",
    "design_inf_s",
    "latency_p50_cycles",
    "latency_p999_cycles",
    "goodput",
]
# End-to-end metrics measured in host time.
HOST_TIME = ["setup_s", "flow_s", "host_ops_s"]


def run(cmd, workload, seed, seconds, trace):
    args = cmd + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    e2e = {}
    for line in lines:
        if line.startswith("end-to-end:"):
            for field in line.split()[1:]:
                if "=" in field:
                    name, value = field.split("=", 1)
                    e2e[name] = float(value)
    return result["metrics"], e2e


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    e2e_spec = {m["name"]: m for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    workloads = [w["name"] for w in bench["workloads"]]

    # runs[set][workload][seed] = untraced metrics
    runs = [{w: {} for w in workloads} for _ in range(SETS)]
    for k in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                runs[k][w][seed], _ = run(cmd, w, seed, seconds, 0)

    summary = {}
    ok = True
    for w in workloads:
        print(f"\n{w}: seeds {SEEDS.start}-{SEEDS.stop - 1}, {SETS} sets")
        rows = {}
        for name, spec in e2e_spec.items():
            bound = spec["bound"]
            stats = [
                spread([runs[k][w][s][name]["value"] for s in SEEDS])
                for k in range(SETS)
            ]
            status = "ok"
            if any(s >= bound for _, s in stats):
                status, ok = "FAIL", False
            elif any(s >= bound / 3 for _, s in stats):
                status = "wide"
            first, second = stats[0][0], stats[-1][0]
            drift = (second - first) / abs(first) if first else 0.0
            worse = drift if spec["better"] == "lower" else -drift
            if worse > bound:
                status, ok = "FAIL (median drift)", False
            rows[name] = {
                "medians": [m for m, _ in stats],
                "spreads": [s for _, s in stats],
                "bound": bound,
            }
            print(
                f"  {name:<20} medians "
                + " ".join(f"{m:<12.6g}" for m, _ in stats)
                + " spreads "
                + " ".join(f"{s:.4f}" for _, s in stats)
                + f"  bound {bound:<5} {status}"
            )
        summary[w] = {"end_to_end": rows}

        for seed in SEEDS:
            for name in DETERMINISTIC:
                values = {runs[k][w][seed][name]["value"] for k in range(SETS)}
                if len(values) > 1:
                    ok = False
                    print(f"  REPEAT FAIL seed {seed} {name}: {sorted(values)}")

        seed = SEEDS.start
        traced = [run(cmd, w, seed, seconds, 1) for _ in range(2)]
        for name in counts:
            a, b = (t[0][name]["value"] for t in traced)
            if a != b:
                ok = False
                print(f"  REPEAT FAIL {name}: {a} != {b}")
        overhead = {
            name: traced[0][1][name] / runs[0][w][seed][name]["value"]
            for name in HOST_TIME
        }
        in_run = traced[0][0]["trace.overhead_ratio"]["value"]
        summary[w]["tracing_overhead"] = overhead
        summary[w]["trace_overhead_ratio"] = in_run
        print(
            "  repeat: deterministic metrics and counts checked; traced/untraced "
            + " ".join(f"{k} {v:.4f}" for k, v in overhead.items())
            + f"; in-run trace.overhead_ratio {in_run:.4f}"
        )

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nwrote {OUT}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
