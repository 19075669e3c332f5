#!/usr/bin/env python3
"""Builds and runs the wavebatch serving benchmark (see NOTES.md).

    python3 perfbench/run.py --workload hot_dashboard --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench under the checkout root, runs one workload, and
passes its output through: the last stdout line is the JSON result. The
metric names it prints are checked against BENCHMARK.json.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests, then runs every workload briefly
with one answer deliberately corrupted and requires each run to fail.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["hot_dashboard", "cold_adhoc", "ingest_progressive"]
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(["cmake", "--build", BUILD, "-j", jobs,
                                "--target", target], stdout=sys.stderr) == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, corrupt=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_serving"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir, "--corrupt", "1" if corrupt else "0"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def check_result(lines, trace):
    """Error message when the last line is not a result with every metric
    BENCHMARK.json lists for this mode; None when it is."""
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "last line is not JSON"
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "or units differ" % (missing, extra)
    return None


def selftest():
    if not build("perfbench_selftest"):
        return 1
    if subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                       stdout=sys.stderr) != 0:
        print("selftest: unit tests failed")
        return 1
    if not build("perfbench_serving"):
        return 1
    failures = 0
    for workload in WORKLOADS:
        for corrupt in (False, True):
            code, lines = run_workload(workload, 1, 2, 0, corrupt)
            result = json.loads(lines[-1]) if lines else {}
            passed = code == 0 and result.get("correct") is True
            ok = passed != corrupt
            failures += not ok
            print("selftest: %s corrupt=%d -> exit %d, correct=%s: %s" % (
                workload, corrupt, code, result.get("correct"),
                "ok" if ok else "UNEXPECTED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench_serving"):
        print("benchmark build failed", file=sys.stderr)
        return 1
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
    error = check_result(lines, args.trace) if code == 0 else None
    if error is not None:
        # Keep the result line off the end of stdout: this run is invalid.
        lines.append("# " + error)
        code = 1
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
