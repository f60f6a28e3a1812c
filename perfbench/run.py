#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hard|easy --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates by path;
the build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The benchmark itself clears every EMG_*
variable and RAYON_NUM_THREADS before it starts, so no knob of the
program changes what is measured.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, target, "release", "emg-perfbench")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
