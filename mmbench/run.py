#!/usr/bin/env python3
"""Build and run the MMLab end-to-end benchmark (see README.md).

Run from the repository root:

    python3 mmbench/run.py --workload pipeline_d2 --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the mmbench driver in
Release mode under .bench_build/ (later runs only check the build is up to
date).  The driver prints one JSON record with every metric it measured, its
sample counts, digests and extra figures; this script prints that record,
then the result line: correct / attempted / failed and exactly the metrics
BENCHMARK.json lists for the mode, with the units it gives; a metric the
workload did not report fails the run.  A workload reports an explicit 0,
with no samples, for a layer it does not exercise.  Build logs go to
standard error.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pipeline_d2", "query_mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "mmbench")
# Compiler and driver temporaries stay inside the checkout too.
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("mmbench: " + message, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = TMP_DIR
    return env


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; stop it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=child_env())
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("build step timed out: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MMLab sources (src/) not found next to " + BENCH_DIR)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    os.makedirs(TMP_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_logged(["cmake", "--build", BUILD_DIR, "--target", "mmbench",
                       "-j", jobs], BUILD_TIMEOUT_S):
            fail("build failed")
    return os.path.join(BUILD_DIR, "mmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (args.workload,
                                                           os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("the workload printed no result (exit code %d)" % proc.returncode)
    record = json.loads(lines[-1])
    result = result_line(record, args.trace)
    print(lines[-1])
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


def result_line(record, trace):
    """The contract's result object, with the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured = record["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            fail("the workload did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
