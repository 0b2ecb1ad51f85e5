#!/usr/bin/env python3
"""Builds lmfao_core and the perfbench binary from source, then runs one
workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny]

Run it from anywhere inside a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench-release (default .bench_build/ at the checkout
root) as a CMake Release build; later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout is always the binary's
result: one JSON object with keys correct, attempted, failed and metrics.
With --trace 1 the spans are also written as a Chrome trace-event file
under <build dir>/traces/.

The measured process runs with every LMFAO_* variable removed from its
environment (LMFAO_JIT, LMFAO_FAILPOINTS, LMFAO_DIST_SHARDS, ...), so a
setting in the caller's shell cannot change what is measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["linreg-bgd", "cart-train", "append-refresh", "sharded-cov"]
# The recorded default seed. A claim made with it is checked again on a
# second seed (README.md).
DEFAULT_SEED = 7
# A run must end within 180 s once the tree is built; the first run in a
# checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build(out_dir):
    """Configures (once) and builds; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no lmfao sources at %s" %
              os.path.join(ROOT, "src"), file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every relation, for smoke tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("LMFAO_")}
    cleared = sorted(k for k in os.environ if k.startswith("LMFAO_"))
    print("# run.py cleared: %s" % (" ".join(cleared) or "(none set)"),
          flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(out_dir), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
