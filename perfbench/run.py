#!/usr/bin/env python3
"""Builds and runs the MDV end-to-end benchmark.

    python3 perfbench/run.py --workload subscribe|publish|churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from ../src into
$CARGO_TARGET_DIR (default .bench_build) with CMake in Release mode, then
run; the last line of stdout is the benchmark's JSON result. Lines before
it record the host facts of the run. The program's own log goes to
<build dir>/perfbench-<workload>.log. --self-test builds and runs the
unit tests of the benchmark's helpers instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("subscribe", "publish", "churn")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for step in steps:
        try:
            # Build output goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {' '.join(step)}: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def source_digest():
    """SHA-256 over the program and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build_type(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_ticks():
    """(total, steal) jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (sum(fields), fields[7]) if len(fields) > 7 else None


def self_test(out):
    if not build(out, "perfbench_trace_math_test"):
        return 1
    binary = os.path.join(out, "perfbench_trace_math_test")
    if not os.path.exists(binary):
        log("GoogleTest not found; the helper tests were not built")
        return 1
    return subprocess.run([binary], timeout=120).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"MDV sources not found under {ROOT}/src")
        return 2
    out = build_dir()
    if args.self_test:
        return self_test(out)
    if args.workload is None:
        parser.error("--workload is required")
    if not build(out, "mdv_perfbench"):
        return 1

    work_dir = os.path.join(out, f"work-{os.getpid()}")
    command = [os.path.join(out, "mdv_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    log_path = os.path.join(out, f"perfbench-{args.workload}.log")
    # The benchmark stops starting cycles once `seconds` would be
    # exceeded, so it ends well within this limit.
    limit = min(170, 3 * args.seconds + 60)
    ticks_before = cpu_ticks()
    with open(log_path, "w") as log_file:
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=log_file, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            log(f"benchmark exceeded {limit} s; see {log_path}")
            return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark failed with exit code {done.returncode}; "
            f"see {log_path}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"benchmark printed no result; see {log_path}")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result: {lines[-1]}")
        return 1

    # On a virtual machine, time the hypervisor gave other guests
    # inflates every latency; the share stolen during the run says how
    # much to trust it.
    ticks_after = cpu_ticks()
    steal_pct = None
    if ticks_before and ticks_after and ticks_after[0] > ticks_before[0]:
        steal_pct = round(100.0 * (ticks_after[1] - ticks_before[1]) /
                          (ticks_after[0] - ticks_before[0]), 2)
    host = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "build_type": build_type(out),
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "cpu_steal_pct": steal_pct}
    print(json.dumps({"host": host}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
