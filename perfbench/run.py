#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to dune's _build directory with the release profile and
dune's shared cache off, so nothing is written outside the checkout.
Build output goes to stderr; the benchmark's last stdout line is its
result object.  Exits 2 without a result when the checkout holds no
buildable program.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the root of an ezRealtime "
                         "checkout (dune-project, lib/ and perfbench/dune "
                         "are required)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env["PERFBENCH_NPROC"] = str(len(os.sched_getaffinity(0)))
    commit = "unknown"
    if os.path.isdir(".git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    env["PERFBENCH_COMMIT"] = commit
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
