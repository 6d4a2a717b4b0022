#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The library (src/) and the
benchmark (perfbench/) are compiled into .bench_build/perfbench with CMake
in Release mode; later runs rebuild only what changed. Build output goes
to stderr, so the program's standard output, whose last line is the JSON
result, passes through untouched. The exit status is the program's
(0 ok, 1 failed or wrong outputs, 2 malformed arguments), or 3 when the
build fails or the library sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources under src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 3
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "lorbench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
