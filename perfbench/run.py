#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs it.

    python3 perfbench/run.py --workload ti5k_flow --seed 1 --seconds 20 --trace 0

The driver (perfbench/driver.cpp) is built with CMake into
.bench_build/perfbench under the checkout root; later runs rebuild only
what changed.  Build output goes to stderr, so the last line of stdout is
the driver's JSON result.  A failed build exits non-zero without a result.
All arguments are passed through to the driver; traced runs (--trace 1)
write their Chrome trace-event file into the build directory.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "contango_perfbench")


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def trace_path(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    name = "trace-%s-s%s.json" % (args.get("--workload", "x"), args.get("--seed", "x"))
    return os.path.join(BUILD, name)


def main():
    argv = sys.argv[1:]
    build()
    cmd = [BINARY, "--root", ROOT, "--trace-out", trace_path(argv)] + argv
    sys.stdout.flush()
    # A child process rather than exec, so the driver's peak-RSS reading
    # covers the driver alone.  SIGTERM unwinds through the finally below,
    # so the driver never outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd)
    try:
        sys.exit(child.wait())
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    main()
