#!/usr/bin/env python3
"""Builds ontobench from the checkout and runs one workload.

Run from the root of an ontorew checkout:

    python3 ontobench/run.py --workload warm_wire --seed 1 --seconds 10 --trace 0

The first run configures and builds (CMake, Release) into
$CARGO_TARGET_DIR/ontobench, or .bench_build/ontobench when that variable is
unset; later runs only check the build is current. The build's output goes
to stderr, so standard output carries only the benchmark's own lines, the
last of which is the JSON result. Results files go to <build>/results.

Exit codes: those of the benchmark binary (0 correct, 1 an answer differed
from the oracle, 2 no run was possible), or 3 when the build failed (no
result line is printed then).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    command = ["cmake", "--build", build_dir, "--target", "ontobench",
               "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "ontobench")
    if not build(build_dir):
        print("ontobench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(build_dir, "ontobench")
    results = os.path.join(build_dir, "results")
    run = subprocess.run([binary] + sys.argv[1:] + ["--out", results],
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
