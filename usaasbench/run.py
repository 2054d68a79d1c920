#!/usr/bin/env python3
"""Builds and runs the usaas wire benchmark.

    python3 usaasbench/run.py --workload dashboard_wire --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build (or $CARGO_TARGET_DIR); later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. `--workload all` runs every
workload in turn (one JSON line each) and fails if any run fails. `--test`
builds and runs the benchmark's own unit tests instead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ["dashboard_wire", "analyst_scan", "live_ingest"]


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    args = sys.argv[1:]
    if args == ["--test"]:
        if not build("usaasbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "usaasbench_tests")]).returncode
    if not build("usaas_wire_bench"):
        print("usaasbench: build failed", file=sys.stderr)
        return 1
    if "all" in args:
        at = args.index("all")
        codes = [run(args[:at] + [w] + args[at + 1:]) for w in WORKLOADS]
        return max(codes)
    return run(args)


def run(args):
    sys.stdout.flush()
    proc = subprocess.Popen([os.path.join(BUILD, "usaas_wire_bench")] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("usaasbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
