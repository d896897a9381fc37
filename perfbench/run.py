#!/usr/bin/env python3
"""Builds the monitor benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload solo-aggregate --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first run configures and compiles the library
sources, later runs only check that the build is up to date. Build output
goes to stderr, so the last line of stdout is the benchmark's result
object. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["solo-aggregate", "fleet-interleaved", "service-fork",
             "native-replay"]
# A run may take 180 s; the binary gets what the build leaves of that.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    def cmake(args):
        # Build chatter goes to stderr; stdout carries only the result.
        subprocess.run(["cmake"] + args, check=True, stdout=sys.stderr)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmake(["-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmake(["--build", build_dir, "-j", jobs])
    return os.path.join(build_dir, "tessla-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="check that wrong answers are caught")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    # Sockets, native caches and span files live here; kept relative so
    # socket paths stay short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"))
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    cmd += ["--work-dir", work_dir]
    # The native tier's compiler writes its temporaries under TMPDIR.
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        result = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
