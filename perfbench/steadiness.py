#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in two sets of runs of one commit
and prints, for each end-to-end metric x workload, the spread of each set
and the gap between the two sets' medians, against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] \
        [--seed-base 1000] [--seconds <s>] [--log <file>]
    python3 perfbench/steadiness.py --from-log <file>

Every run gets its own seed (seed-base, seed-base+1, ...; the second set
continues the sequence), and workloads are interleaved run by run so that
a change in host load hits all of them alike. For each set the spread is
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A metric fails when a spread, setup_s's
included, is above its bound, or when the second median is worse than the
first by more than the bound; a spread above a third of the bound is only
marked. The exit code is 0 when every run was correct and no metric
failed. --log keeps every run's result; --from-log prints the
table again from such a log (against the bounds in BENCHMARK.json now)
without running anything.
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
SETS = 2


def run_once(workload, seed, seconds):
    """Returns (result object or None, the run's '#' info lines, wall s)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    info = [line for line in lines if line.startswith("#")]
    if done.returncode != 0 or not lines:
        return None, info, wall
    return json.loads(lines[-1]), info, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(args, workloads):
    """Runs the sets, workloads interleaved; returns one line per run."""
    lines = []
    seed = args.seed_base
    for s in range(SETS):
        for r in range(args.runs):
            for w in workloads:
                result, info, wall = run_once(w, seed, args.seconds)
                line = {"set": s, "run": r, "workload": w, "seed": seed,
                        "wall_s": round(wall, 1), "result": result,
                        "info": info}
                lines.append(line)
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps(line) + "\n")
                print("set %d run %d %-15s seed %d wall %5.1fs  %s" % (
                    s, r, w, seed, wall, "  ".join(
                        "%s=%.4g" % (name, m["value"])
                        for name, m in (result or {}).get(
                            "metrics", {}).items())), flush=True)
            seed += 1
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--log", help="append every result line here")
    parser.add_argument("--from-log", help="summarize this log; run nothing")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    if args.from_log:
        with open(args.from_log) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        workloads = list(dict.fromkeys(line["workload"] for line in lines))
    else:
        lines = run_all(args, workloads)

    # values[set][workload][metric] -> list
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(SETS)]
    ok = True
    for line in lines:
        result = line["result"]
        if (result is None or not result["correct"]
                or result["failed"] != 0):
            print("run failed or incorrect: %s" % json.dumps(line))
            ok = False
            continue
        for m in metrics:
            values[line["set"]][line["workload"]][m["name"]].append(
                result["metrics"][m["name"]]["value"])

    print()
    print("%-15s %-14s %6s  %s  %s" % (
        "workload", "metric", "bound",
        "  ".join("med%d      spread%d" % (s + 1, s + 1)
                  for s in range(SETS)),
        "gap"))
    for w in workloads:
        for m in metrics:
            bound = m["bound"]
            row = []
            medians = []
            for s in range(SETS):
                v = values[s][w][m["name"]]
                if len(v) < 2:
                    row.append("%-9s %-8s" % ("n/a", "n/a"))
                    ok = False
                    continue
                med = statistics.median(v)
                sp = spread(v)
                medians.append(med)
                mark = ""
                if sp > bound:
                    mark, ok = "!", False
                elif sp > bound / 3:
                    mark = "~"
                row.append("%-9.4g %6.3f%-2s" % (med, sp, mark))
            gap_text = ""
            if len(medians) >= 2:
                worse = medians[-1] / medians[0] - 1.0
                if m["better"] == "higher":
                    worse = -worse
                gap_text = "%+.3f" % worse
                if worse > bound:
                    gap_text += " !"
                    ok = False
            print("%-15s %-14s %6.3f  %s  %s" % (w, m["name"], bound,
                                                 "  ".join(row), gap_text))
    print()
    print("spread: (Q3-Q1)/median per set; '~' above a third of the bound, "
          "'!' above the bound. gap: how much worse the last set's median "
          "is than the first's.")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
