#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload run.py knows at --scale tiny (cart-train and
append-refresh too, which BENCHMARK.json leaves out), once untraced and
once traced. Checks that each run passes its oracle with no failed
operation, that its last stdout line is the result object with exactly the
keys correct, attempted, failed and metrics, that every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json is printed with
its unit and a numeric value (a layer nothing measured is printed as
null), and that the traced run wrote a Chrome trace file. Prints every
problem and exits non-zero if there was one. Takes about a minute once
the binary is built.
"""

import glob
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected, problems):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "11", "--seconds", "0.5", "--trace",
           str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    label = "%s trace=%d" % (workload, trace)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append("%s: exit code %d\n%s" % (
            label, done.returncode, done.stderr[-2000:]))
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: correct=%s failed=%s" % (
            label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted=%r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append("%s: metrics %s" % (label, sorted(metrics)))
        return
    for m in expected:
        got = metrics[m["name"]]
        value = got.get("value")
        if (got.get("unit") != m["unit"] or isinstance(value, bool)
                or not isinstance(value, (int, float))):
            problems.append("%s: %s printed as %r" % (label, m["name"], got))
    print("ok  %-15s trace=%d attempted=%d" % (workload, trace,
                                                result["attempted"]),
          flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    if os.environ.get("CARGO_TARGET_DIR"):
        trace_dir = os.path.join(ROOT, os.environ["CARGO_TARGET_DIR"],
                                 "traces")
    problems = []
    for w in WORKLOADS:
        for stale in glob.glob(os.path.join(trace_dir,
                                            "%s-seed11.json" % w)):
            os.remove(stale)
        check_run(w, 0, bench["end_to_end"], problems)
        check_run(w, 1, bench["per_layer"], problems)
        path = os.path.join(trace_dir, "%s-seed11.json" % w)
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                problems.append("%s: empty trace" % path)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: %s" % (path, e))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
