#!/usr/bin/env python3
"""renofs benchmark entry point.

Run from the root of a renofs checkout:

    python3 perfbench/run.py --workload lan-read --seed 1 --seconds 10 --trace 0

Builds the benchmark program (perfbench/bin) from source with dune, then
runs one workload.  --trace 0 prints the end-to-end metrics; --trace 1
prints the per-layer metrics of a separate traced run and writes its
op and RPC spans to .perfbench/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
exit code is non-zero when the build fails or any output was wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["wan-lookup", "lan-read", "lan-write"]
TARGET = "./perfbench/bin/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def main():
    ap = argparse.ArgumentParser(description="renofs benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a renofs checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; keep every
    # build artefact under _build instead.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(".perfbench", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".perfbench", "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
