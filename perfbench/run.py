#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Arguments are passed to the benchmark executable unchanged (see
perfbench/README.md). The build's own output goes to standard error, so
standard output carries only the benchmark's lines, the last of which is
the result object. A failed build exits with status 2 and prints no
result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "src", "bench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/src/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
