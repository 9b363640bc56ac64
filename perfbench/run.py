#!/usr/bin/env python3
"""Builds the benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds into
.bench_build/ (CMake, Release); later calls only rebuild what changed. Build
output goes to stderr. The benchmark's stdout is passed through unchanged, so
its last line is the JSON result, and its exit code is returned. With
--trace 1 the in-memory spans are written once, at the end, to
.bench_build/spans/<workload>-seed<N>.csv.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def run(cmd, **kwargs):
    """Runs cmd to completion; the child is stopped if we are interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if run(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    # A terminated run unwinds through run(), which stops the child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
