#!/usr/bin/env python3
"""Build and run the CLEAR-Serve benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use
and rebuilt incrementally afterwards. Progress and the human-readable
summary go to stderr; the last line of stdout is the run's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # Configure afresh next time.
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench",
           "perfbench_selftest", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=["steady", "onboard", "fleet"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the metric-code tests, then exit")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    build(out)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")])
                 .returncode)

    work = os.path.join(out, "run-%d" % os.getpid())
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "obs-%s-%d.json" % (args.workload,
                                                      args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    # Library chatter (the coordinator's placement lines) goes to stderr so
    # the result stays the last line of stdout.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % done.returncode)
    json.loads(lines[-1])  # A malformed result line is a failed run.
    print(lines[-1])


if __name__ == "__main__":
    main()
