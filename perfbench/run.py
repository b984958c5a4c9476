#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload tpch_q1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/ (Release). Generated tables are
cached in .bench_cache/, keyed by seed and by a hash of the sources that
encode them, so later runs skip generation. The last line of stdout is the
benchmark's JSON result; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124
    except OSError as e:
        log(f"cannot run {cmd[0]}: {e}")
        return 127


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 600)
        if rc != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], 850) == 0


def source_key():
    """Hash of the library sources and of the benchmark's table generator:
    a cached table is reused only by the generator and encoder that wrote
    it."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "perfbench", "src", f)
             for f in ("workloads.h", "workloads.cc")]
    for d, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def selftest():
    rc = run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest"),
                    os.path.join(OUT_DIR, "selftest")], 600)
    if rc != 0:
        log("perfbench_selftest failed")
        return 1
    # End to end: a planted wrong expectation must fail the whole run.
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload",
           "dashboard_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
           "--cache-key", source_key(), "--plant-mismatch"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if p.returncode == 0 or result.get("correct") is not False or \
            result.get("failed", 0) == 0:
        log("planted mismatch was not caught by the oracle gate")
        return 1
    log(f"planted mismatch caught: {result['failed']} of "
        f"{result['attempted']} replies failed, exit {p.returncode}")
    print("selftest: ok")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 3
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    bench = os.path.join(BUILD_DIR, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache-key", source_key()]
    # Generate (or find) the cached table in its own process, so the
    # measured process's peak RSS never includes table generation.
    rc = run_quiet([bench] + common + ["--prepare"], RUN_TIMEOUT_S)
    if rc != 0:
        log("table preparation failed")
        return rc or 1
    cmd = [bench] + common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 124


if __name__ == "__main__":
    sys.exit(main())
