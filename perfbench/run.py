#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is compiled from ./src with the
benchmark's own CMake project (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the build is
reused while its sources are unchanged. Build output goes to stderr, the
benchmark's report to stdout; its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=840)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: the library sources (src/) are missing; "
                         "run from a full checkout\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    args = [os.path.join(build_dir, "perfbench")] + sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(target, "perfbench-trace")]
    sys.stdout.flush()
    try:
        return subprocess.run(args, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded 175 s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
