#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target) against the repository's
crates, then runs the workload in a process of its own. The last line of
standard output is the result JSON; any build or check failure exits
non-zero.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ooc-heat", "serving-mix", "cluster-heat", "modelcheck-cluster-ghost"]
# The seed a run uses when none is given, and the one kept back for
# confirming later performance claims (see perfbench/README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr so the result stays the last stdout line.
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                               env=dict(os.environ, CARGO_TARGET_DIR=target))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {args.workload} did not finish: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
