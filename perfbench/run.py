#!/usr/bin/env python3
"""Build the served-lineage benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload query_fig6 --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); cargo's output goes to stderr. Then this process is replaced by the
benchmark binary, which prints a context line and, last, the result line.
A failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target, PERFBENCH_COMMIT=commit())
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 2  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
