#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--sets 1|2] [--workloads a,b]
                                [--seconds S] [--seed-base N]

Runs every workload --runs times per set, each run with another seed,
alternating the workload order (and, with --sets 2, which set goes first)
so slow drifts of the host fall on every workload and set alike. For each
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median beside the
metric's bound from BENCHMARK.json.

Exits 1 when any run fails or reports correct=false, when a spread other
than that of setup_s exceeds its bound, when the share of failed
operations differs between sets, or (--sets 2) when the second set's
median is worse than the first's by more than the bound. Raw results go
to .bench_build/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    record = [l for l in lines if l.startswith("# measured")]
    print("  %-16s seed=%-6d rc=%d %5.1fs %s" % (
        workload, seed, proc.returncode, time.time() - t0,
        record[0][2:] if record else ""), flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    # results[set][workload] -> list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    bad = False
    for i in range(args.runs):
        sets = list(range(args.sets))
        if i % 2 == 1:
            sets.reverse()
        for s in sets:
            shift = (i + s) % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                seed = args.seed_base + 1000 * s + i
                r = run_once(spec, w, seed, seconds)
                if r is None or not r.get("correct"):
                    bad = True
                    print("  FAILED run: %s seed %d" % (w, seed))
                    continue
                results[s][w].append(r)

    os.makedirs(os.path.join(ROOT, ".bench_build", "steady"), exist_ok=True)
    out_path = os.path.join(ROOT, ".bench_build", "steady",
                            "steady-%d.json" % int(time.time()))
    with open(out_path, "w") as f:
        json.dump(results, f)

    for w in workloads:
        print("\n%s (%s)" % (w, ", ".join(
            "set %d: %d runs" % (s + 1, len(results[s][w]))
            for s in range(args.sets))))
        fail_shares = [r["failed"] / r["attempted"]
                       for s in range(args.sets) for r in results[s][w]]
        if fail_shares and max(fail_shares) != min(fail_shares):
            bad = True
            print("  failed-operation share differs between runs")
        print("  %-26s %8s %12s %12s %12s %8s %6s %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[s][w]
                        if name in r["metrics"]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, bad = "OVER BOUND", True
                elif name != "setup_s" and spread > bound / 3:
                    flag = "above bound/3"
                print("  %-26s %8d %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s" % (
                    name, s + 1, q1, med, q3, 100 * spread, 100 * bound,
                    flag))
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                flag = ""
                if worse > bound:
                    flag, bad = "SECOND SET WORSE THAN BOUND", True
                print("  %-26s %8s %+11.1f%% of the first median %s" % (
                    "", "2 vs 1", 100 * change, flag))
    print("\nraw results: %s" % os.path.relpath(out_path, ROOT))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
