#!/usr/bin/env python3
"""Build and run the layered benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may also be "all": every workload of BENCHMARK.json runs in turn.
Builds perfbench/bench.exe from the checkout's sources with dune (build
tree and temporary files under .bench_build/), then runs it with the
same arguments.  The program prints a human-readable table and, as the
last line of stdout, one JSON object with the run's metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: the library sources (dune-project, lib/) are missing",
              file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD, "default", "perfbench", "bench.exe")
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i:i + 1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        return max(run(exe, args[:i] + [name] + args[i + 1:], env)
                   for name in names)
    return run(exe, args, env)


def run(exe, args, env):
    proc = subprocess.Popen([exe] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
