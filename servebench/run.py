#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

    python3 servebench/run.py --workload robot_interactive --seed 1 \
        --seconds 36 --trace 0

Run from the root of a checkout. Builds servebench/ (and the library
sources it links) into .bench_build/servebench, runs the benchmark's
self-tests, then runs one workload. The last line of standard output is the
JSON result: {"correct", "attempted", "failed", "metrics"}. Build output
goes to standard error. `--workload all` runs every workload in turn (for
people; each workload's JSON line is printed as it finishes).

Exits non-zero, without a result line, when the build or the self-tests
fail, and non-zero after printing a result with "correct": false when an
answer or an accounting invariant is wrong.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["robot_interactive", "gallery_search", "fleet_poisson"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    # Build tools write to stderr only: stdout carries the result line.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to the benchmark (src/CMakeLists.txt)")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "--target", "servebench",
                 "servebench_selftest", "-j", jobs], BUILD_TIMEOUT_S)


def source_rev():
    """git revision when there is one, else a digest of the built sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(args, workload, rev):
    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "servebench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", rev,
           "--trace-out",
           os.path.join(TRACES, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            if line.strip():
                last = line.strip()
            sys.stdout.write(line)
            sys.stdout.flush()
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        log(f"{workload}: no result line (exit code {proc.returncode})")
        return proc.returncode or 1
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    if not step([os.path.join(BUILD, "servebench_selftest")], 60):
        log("self-tests failed")
        return 1
    rev = source_rev()
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run_workload(args, workload, rev) or code
    return code


if __name__ == "__main__":
    sys.exit(main())
