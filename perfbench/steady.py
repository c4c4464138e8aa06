#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run from the repository root. For every workload in BENCHMARK.json (or
the --workloads subset, for probing one workload) it makes two sets of
--runs untraced runs through perfbench/run.py, each run with its own seed,
and prints per end-to-end metric and set the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median. A
workload/metric passes when both sets' spreads are within the metric's
bound and the second set's median is no worse than the first's by more
than the bound. Exit status 1 when anything fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def one_run(workload, seed, seconds):
    run = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                          "--workload", workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit("run %s seed %d failed:\n%s" % (workload, seed, run.stderr[-2000:]))
    res = json.loads(run.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("run %s seed %d was not correct: %s" % (workload, seed, res))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    a = ap.parse_args()

    ok = True
    for w in a.workloads.split(","):
        sets = [[one_run(w, 1000 * (s + 1) + i, spec["run_seconds"]) for i in range(a.runs)]
                for s in range(SETS)]
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for s, runs in enumerate(sets):
                q1, med, q3 = statistics.quantiles([r[name] for r in runs], n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                drift = (med - first) / first * (1 if lower else -1)
                good = spread <= bound and drift <= bound
                ok = ok and good
                print("%-17s %-17s set %d  median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %6.4f "
                      "(bound %.3f, third %.4f)  drift %+7.4f  %s"
                      % (w, name, s + 1, med, q1, q3, spread, bound, bound / 3, drift,
                         "ok" if good else "FAIL"), flush=True)
    print("steady: %s" % ("all sets agree" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
