#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/jurybench.exe with dune
(in _build, inside the checkout), runs it, and passes its output through;
the last line is the JSON result. Exits non-zero, printing no result,
when the checkout lacks the program's sources or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

TARGET = "./perfbench/jurybench.exe"
EXE = os.path.join("_build", "default", "perfbench", "jurybench.exe")
SOURCES = ["dune-project", "lib", os.path.join("perfbench", "dune")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die("not a checkout of the program (missing %s)" % ", ".join(missing))
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", TARGET]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        die("build failed (%s)" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    # Keep every file the build and the run write inside the checkout:
    # no shared dune cache, and the runtime-events ring (read back for
    # gc.pause_s) under _build, removed by the runtime at exit.
    env["DUNE_CACHE"] = "disabled"
    ring_dir = os.path.abspath(os.path.join("_build", "perfbench-events"))
    build(env)
    os.makedirs(ring_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = ring_dir
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    out = done.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    if done.returncode != 0 or not lines:
        if lines:
            print("\n".join(lines), file=sys.stderr)
        die("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(out, file=sys.stderr)
        die("the last line of output is not a result")
    print(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
