#!/usr/bin/env python3
"""Build the standing-query benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/standing.exe with dune (shared build cache off, so nothing
is written outside the checkout), then runs it with the given arguments
from the checkout root. The benchmark's last line of standard output is its
JSON result; build output goes to standard error. Exits non-zero, without a
result, when the build or the run fails.

`--workload all` runs every workload named in BENCHMARK.json in turn with
the same other arguments, and prints each one's output.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "standing.exe")
RUN_TIMEOUT_S = 170


def run(args):
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display",
         "quiet", "./perfbench/standing.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        i = args.index("--workload") + 1
        codes = [run(args[:i] + [name] + args[i + 1:]) for name in names]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
