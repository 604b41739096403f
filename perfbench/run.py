#!/usr/bin/env python3
"""Build and run the metricprox benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload knn-vec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark binary) in Release mode into .bench_build/; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the result JSON printed by the benchmark binary. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed: " + " ".join(step))
                return False
    return True


def binary_id(path):
    """Identifies one build of the benchmark binary, to key the reference cache."""
    st = os.stat(path)
    return hashlib.sha1(f"{st.st_size}:{st.st_mtime_ns}".encode()).hexdigest()[:16]


def run_child(command, timeout):
    """Runs `command`, returning (returncode, stdout); kills it on timeout."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          cwd=ROOT, text=True) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            log(f"timed out after {timeout} s: {' '.join(command)}")
            return 1, ""
        return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the decorator self-test")
    args = parser.parse_args()

    if not build():
        return 1

    if args.selftest:
        work = os.path.join(BUILD_DIR, "selftest")
        code, out = run_child([os.path.join(BUILD_DIR, "perfbench_selftest"),
                               work], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        shutil.rmtree(work, ignore_errors=True)
        return code

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = os.path.join(BUILD_DIR, "perfbench")
    work = os.path.join(BUILD_DIR, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work,
        "--cache-dir", os.path.join(BUILD_DIR, "refcache", binary_id(binary)),
    ]
    if args.trace == 1:
        command += ["--trace-out", os.path.join(
            BUILD_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        code, out = run_child(command, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"benchmark binary exited with code {code}")
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark binary printed no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
