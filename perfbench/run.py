#!/usr/bin/env python3
"""Build the titan-cc benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

The compiler libraries and the benchmark are built in `.bench_build/`
(Release).  Build output goes to stderr; stdout carries the benchmark's
report, whose last line is the JSON result.  Exits non-zero when the build
fails or any correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def build(targets):
    """Configure once, then build the targets; returns True on success."""
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 2
        test = os.path.join(BUILD, "perfbench_test")
        return subprocess.run([test], timeout=900).returncode

    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--expected", os.path.join(HERE, "expected_memory.txt"),
           "--work-dir", os.path.relpath(BUILD, ROOT),
           "--rev", source_rev()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(2)
