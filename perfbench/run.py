#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload ingest|serve|cluster --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/perfbench.exe with
dune (build output goes to stderr), then runs it; its last stdout line
is the JSON result. Exits non-zero without a result when the checkout
has no sources to build, when the build fails, or when a run overruns.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK_DIR = ".perfbench_run"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if "__pycache__" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main(argv):
    args = {k: v for k, v in zip(argv, argv[1:]) if k.startswith("--")}
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key not in args:
            fail("missing " + key)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a repository checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [EXE] + argv + ["--commit", source_id()]
    if args["--trace"] == "1":
        cmd += ["--spans", os.path.join(WORK_DIR, "spans-%s.csv" % args["--workload"])]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
