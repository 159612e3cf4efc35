#!/usr/bin/env python3
"""Builds the Genus CLI and the benchmark binary from source, then runs one
benchmark run. Run it from the repository root:

    python3 perfbench/run.py --workload cold_distinct --seed 1 --seconds 20 --trace 0

Build output goes to stderr; the benchmark's last stdout line is the result
(see perfbench/README.md). Artifacts go to $CARGO_TARGET_DIR, default
`.bench_build`. The script exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    # Cargo's output goes to stderr so stdout carries only the result.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("error: build failed: cargo build " + " ".join(args))


def main():
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")
    )
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # The release CLI as users get it (workspace profile), then the benchmark.
    build(["-p", "genus", "--bin", "genus"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    bench = os.path.join(target, "release", "genus-perfbench")
    genus = os.path.join(target, "release", "genus")
    done = subprocess.run(
        [bench, "--genus-bin", genus] + sys.argv[1:],
        cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
