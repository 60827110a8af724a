#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark program is built from
source with dune into .bench_build/ (the first run pays for the build),
then run with the given arguments.  Its standard output is passed
through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is the
program's: 0 when every output check passed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else []
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in paths:
            if path.endswith((".ml", ".mli", ".c", "dune", "dune-project")):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "--cache", "disabled", "./perfbench/bench.exe",
    ]
    try:
        # Build chatter goes to stderr: the last stdout line is the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one result; the run must then report correct=false")
    ap.add_argument("--digest", action="store_true",
                    help="print the digest of the inputs the seed generates and exit")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        fail("run from the root of a repository checkout (dune-project, lib/ and perfbench/ not found)")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--commit", source_id()]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    if args.digest:
        cmd.append("--digest")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out", code=3)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 0 and not args.digest:
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("benchmark printed no result line", code=4)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
