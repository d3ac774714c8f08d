#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/driver) together with the engine
sources of this checkout into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload job-hybrid --seed 1 --seconds 10 --trace 0

The driver prints its pinned configuration as '#' lines and, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to stderr. Arguments after the four required ones
are passed to the driver unchanged (for example --threads 1). Exits non-zero
without a result when the build fails, e.g. in a directory that holds only
the benchmark files and no engine sources.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("job-hybrid", "job-sweep", "kv-ingest")


def build():
    """Configures and builds the driver; returns the path of the binary."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "3"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "hndp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--out-dir", OUT_DIR, *extra]).returncode


if __name__ == "__main__":
    sys.exit(main())
