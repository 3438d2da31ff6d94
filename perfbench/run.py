#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory), then
run with the same arguments. The last line of standard output is the result
object; build output goes to standard error. The exit code is non-zero, and
no result is printed, when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(here, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return built.returncode
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    ran = subprocess.run([binary, *sys.argv[1:]], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
