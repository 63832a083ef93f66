#!/usr/bin/env python3
"""Build the OASYS program and this benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: table2_verified, synth_explore, dataset_mc_verified, serve_open_loop.
The last line of standard output is the JSON result; build output goes to
standard error. Builds land in $CARGO_TARGET_DIR (default .bench_build) and
scratch files in .bench_build/perfbench-tmp.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = os.path.join(".bench_build", "perfbench-tmp")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "oasys", "--bin", "oasys"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(args, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isfile(os.path.join("crates", "oasys", "Cargo.toml")) or not build(target):
        print("perfbench: cannot build the program from this directory", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "oasys-perfbench"),
        *sys.argv[1:],
        "--root", ".",
        "--tmp", TMP,
        "--oasys-bin", os.path.join(release, "oasys"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
