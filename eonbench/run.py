#!/usr/bin/env python3
"""Build the end-to-end Eon benchmark from source and run one workload.

Usage (from the repository root):
  python3 eonbench/run.py --workload <tpch_warm|tpch_cold|serve_mixed> \
      --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds an optimized binary in .bench_build/
(later runs only rebuild what changed). Build output goes to stderr, so
the benchmark's last stdout line is its JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 124


def build(root, build_dir):
    source = os.path.join(root, "eonbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", build_dir, "--target", "eonbench", "-j", jobs]
    return run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        print("eonbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "eonbench")
    return run([binary] + sys.argv[1:], RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
