#!/usr/bin/env python3
"""Steadiness check for the rab end-to-end benchmark.

Usage, from the root of the repository:

    python3 e2ebench/steady.py [--first-seed 1000]

Runs each workload of BENCHMARK.json RUNS times per set, each run with its
own seed, for SETS independent sets. For every end-to-end metric it prints
each set's median, first and third quartile, CV and spread (quartile
distance as a share of the median), and then compares the sets against the
bounds in BENCHMARK.json:

  - each set's spread stays within the metric's bound;
  - the second set's median differs from the first set's by at most the
    bound, in either direction;
  - the share of failed operations is the same in every run.

Exits non-zero when a comparison fails or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    cv = statistics.pstdev(values) / mean if mean else 0.0
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "cv": cv,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                result = run_once(workload, seed, bench["run_seconds"])
                seed += 1
                if not result["correct"]:
                    sys.stderr.write("%s seed %d: a check failed\n"
                                     % (workload, seed - 1))
                    ok = False
                runs.append(result)
            sets.append(runs)

        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print("== %s: %d set(s) x %d runs, failed share %s"
              % (workload, SETS, RUNS,
                 ", ".join("%.6f" % s for s in sorted(shares))))
        if len(shares) != 1:
            print("   FAIL: the failed share differs between runs")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            for i, s in enumerate(stats):
                print("   %-12s set %d: median %.4f q1 %.4f q3 %.4f cv %.3f "
                      "spread %.3f (bound %.2f)"
                      % (name, i + 1, s["median"], s["q1"], s["q3"], s["cv"],
                         s["spread"], bound))
                if s["spread"] > bound:
                    print("   FAIL: %s spread above its bound" % name)
                    ok = False
            base = stats[0]["median"]
            for i, s in enumerate(stats[1:], start=2):
                shift = (s["median"] - base) / base
                if abs(shift) > bound:
                    print("   FAIL: %s set %d median differs from set 1 by "
                          "%+.3f" % (name, i, shift))
                    ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
