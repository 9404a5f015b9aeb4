#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload search|infer|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. The benchmark is its own CMake project
(perfbench/CMakeLists.txt) that builds the qmcu library from ../src; the
build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run pays for it. Build output goes to
stderr; the benchmark's result JSON is the last line of stdout.
"""
import argparse
import os
import shutil
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["search", "infer", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("error: no qmcu source tree around perfbench/ to build",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target, "perfbench")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    binary = os.path.join(build, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build, "out")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
