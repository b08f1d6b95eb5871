#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <olap_plain|olap_compressed|htap_durable>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build (CMake, Release) goes to
.bench_build/perfbench; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero when the build or
the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    # Configure once; later builds re-run CMake themselves when a build
    # file changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
