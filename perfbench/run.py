#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is configured and built under .bench_build/perfbench
at the checkout root (the first run builds, later runs only check that
the build is current).  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  Span files and
scratch packed files go to .bench_out.  Exits non-zero, printing no
result, when the build fails or the run does not finish in time.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "fxbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    command = [BINARY] + sys.argv[1:] + ["--out-dir", OUT]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
