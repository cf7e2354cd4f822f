#!/usr/bin/env python3
"""Build and run the HP-BRCU benchmark in this directory.

Usage, from the root of an hpbrcu checkout:

    python3 hpbench/run.py --workload list|hash|tree --seed N --seconds S --trace 0|1

Builds hpbench/main.exe with dune into the checkout's _build directory,
runs it once and passes its output through: the last line of standard
output is the JSON result.  Exits non-zero without a result when the
hpbrcu sources are missing or the build fails.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "hpbench/main.exe"


def fail(msg):
    print("hpbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    dune = shutil.which("dune")
    if dune is None:
        # An opam switch that the calling shell has not put on PATH.
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        dune = found[-1] if found else None
    return dune


def main():
    ap = argparse.ArgumentParser(description="Build and run the HP-BRCU benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no hpbrcu sources next to the benchmark in " + ROOT)
    dune = find_dune()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", "./" + TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    cmd = [os.path.join(ROOT, "_build", "default", TARGET),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
