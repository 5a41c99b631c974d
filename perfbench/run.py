#!/usr/bin/env python3
"""Builds and runs the engine benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from anywhere inside a source checkout of the repository. The first
run compiles the engine modules from src/ into .bench_build/perfbench;
later runs reuse that build. Build output goes to stderr; the benchmark's
report goes to stdout and its last line is the result JSON. The traced
run (--trace 1) writes its spans under .bench_out/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(command):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "bayesnet", "engine.hpp")):
        fail(f"no sysuq sources under {os.path.join(ROOT, 'src')}; "
             "run the benchmark from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if run_build_step(configure) != 0:
            fail("configuring the benchmark failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS]
    if run_build_step(command) != 0:
        fail("building the benchmark failed")
    return os.path.join(BUILD_DIR, target)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over every file under src/, so checkouts without git history
    still record which code was measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([build("perfbench_tests")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--commit", git_commit(),
               "--digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
