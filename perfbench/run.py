#!/usr/bin/env python3
"""Build poqbench from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_dense --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/ into .bench_build/ (the
poqnet library is built through the root CMakeLists.txt, Release); later
calls only rebuild what changed. Build output goes to stderr, so the last
stdout line is poqbench's JSON result. Extra arguments (--size tiny) are
passed through. Exits nonzero, without a result, when there is no poqnet
source tree to build.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build() -> str:
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the root of a poqnet checkout "
                 "(CMakeLists.txt and src/ not found)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release",
             # Never download a missing dependency.
             "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "poqbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "poqbench")


def main() -> int:
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary, *sys.argv[1:], "--out-dir", BUILD_DIR],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
