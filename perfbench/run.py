#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload balance_sweep --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
then runs the perfbench binary with the given arguments. Build output
goes to stderr; the binary's report goes to stdout, whose last line is
the JSON result. Host-time Chrome traces of --trace 1 runs are written
to .bench_build/perfbench/.
"""

import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "core", "moentwine.cc")):
        sys.stderr.write("perfbench: simulator sources (src/) not found "
                         "next to perfbench/; run from a full checkout\n")
        return 1
    if shutil.which("cmake") is None:
        sys.stderr.write("perfbench: cmake not found\n")
        return 1

    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return 1

    binary = os.path.join(build, "perfbench")
    sys.stdout.flush()
    done = subprocess.run([binary] + sys.argv[1:] + ["--trace-dir", build])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
