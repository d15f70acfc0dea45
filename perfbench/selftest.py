#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that
  * every workload, untraced and traced, passes its correctness checks
    and emits every metric BENCHMARK.json names, with its unit;
  * arming the net.stale_read failpoint on serve makes the benchmark
    report a read-your-writes violation and exit non-zero (the checker
    is checked);
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = 7
SECONDS = "2"


def run(extra, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", SECONDS] + extra
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(out):
    lines = out.stdout.strip().split("\n")
    try:
        return json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None


def main():
    spec = json.load(open("BENCHMARK.json"))
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            out = run(["--workload", w, "--trace", trace, "--size", "tiny"])
            res = result_of(out)
            tag = "%s trace=%s" % (w, trace)
            check(out.returncode == 0 and res is not None and res["correct"],
                  tag + ": exits 0 with a correct result")
            if res is None:
                sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["attempted"] >= 1, tag + ": result keys")
            got = res["metrics"]
            missing = [m["name"] for m in metrics
                       if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
                       or not math.isfinite(got[m["name"]]["value"])]
            check(not missing, tag + ": every metric with its unit" +
                  ("" if not missing else " (missing or wrong: %s)" % ", ".join(missing)))
            extra = sorted(set(got) - {m["name"] for m in metrics})
            check(not extra, tag + ": no unlisted metric" + ("" if not extra else " (%s)" % extra))

    out = run(["--workload", "serve", "--trace", "0", "--size", "tiny", "--inject-stale-read"])
    res = result_of(out)
    check(out.returncode != 0 and res is not None and not res["correct"]
          and "read-your-writes" in out.stdout,
          "serve with net.stale_read armed: violation reported, run fails")

    bare = os.path.join(".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--workload", spec["workloads"][0]["name"], "--trace", "0"], cwd=bare)
    check(out.returncode != 0 and result_of(out) is None,
          "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not problems else "%d FAILED" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
