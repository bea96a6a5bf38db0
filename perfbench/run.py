#!/usr/bin/env python3
"""Build and run the host-cost benchmark of the multiverse toolchain.

    python3 perfbench/run.py --workload fuzz|reconfig|execute --seed N \
        --seconds S --trace 0|1 [--ops N] [--chaos]

Run from the root of the repository.  The benchmark executable is built
from source with dune (release profile, build directory .bench_build,
shared cache off, so nothing is written outside the checkout), then run
with the same arguments.  Build output goes to standard error; the last
line of standard output is the result as one JSON object.  Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE, env=env)
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stderr.write(out)
        print("perfbench: run failed with code %d" % run.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
