#!/usr/bin/env python3
"""Builds the benchmark from source, runs its self-tests, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --ablation [--seconds <s>]

Every argument is passed to the perfbench binary.  The build goes to
.bench_build/perfbench under the current directory; build output goes to
stderr so the last stdout line stays the binary's JSON result.  Exits
non-zero, printing no result, when the build or a self-test fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: '%s' failed\n" % " ".join(cmd))
        sys.exit(1)


def main():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", BUILD, "-j", JOBS])
    binary = os.path.join(BUILD, "perfbench")
    run_quiet([binary, "--self-test"])
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
