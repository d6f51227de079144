#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of the repository:

    python3 perfbench/test_bench.py

- every workload, in short mode, untraced and traced, prints every metric
  BENCHMARK.json names, with its unit, and a correct result;
- generated-batch agrees with its reference on another campaign seed;
- each planted wrong answer (a schedule with one delay changed, a flipped
  reference verdict) fails the run rather than counting as a failed
  operation;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
WORKLOADS = ["paper-cases", "generated-batch"]
failures = []


def run(args, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py"] + args
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result


def check(name, ok, detail=""):
    print(("ok   " if ok else "FAIL ") + name + (": " + detail if detail and not ok else ""))
    if not ok:
        failures.append(name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    base = ["--seed", "3", "--seconds", "1", "--short"]
    for w in WORKLOADS:
        for trace in (0, 1):
            name = "%s --trace %d" % (w, trace)
            p, r = run(["--workload", w, "--trace", str(trace)] + base)
            if p.returncode != 0 or r is None:
                check(name, False, "exit %d: %s" % (p.returncode, p.stderr[-2000:]))
                continue
            check(name + " correct", r["correct"] is True and r["failed"] == 0
                  and r["attempted"] >= 1, json.dumps(r)[:300])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(name + " metrics", got == expected[trace],
                  "missing %s, extra %s, units %s" % (
                      sorted(set(expected[trace]) - set(got)),
                      sorted(set(got) - set(expected[trace])),
                      sorted(k for k in got if k in expected[trace]
                             and got[k] != expected[trace][k])))
            check(name + " values", all(
                isinstance(v["value"], (int, float)) for v in r["metrics"].values()))
    p, r = run(["--workload", "generated-batch", "--trace", "0",
                "--corpus-seed", "7"] + base)
    check("generated-batch --corpus-seed 7",
          p.returncode == 0 and r is not None and r["correct"] is True,
          p.stderr[-2000:])
    for w in WORKLOADS:
        for plant in ("schedule", "reference"):
            name = "%s --plant %s" % (w, plant)
            p, r = run(["--workload", w, "--trace", "0", "--plant", plant] + base)
            check(name + " fails the run",
                  p.returncode != 0 and r is not None and r["correct"] is False
                  and r["failed"] == 0 and "wrong answer" in p.stderr,
                  "exit %d, result %s, stderr %s" % (p.returncode, r, p.stderr[-500:]))
    bare = os.path.join(ROOT, "_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, r = run(["--workload", "paper-cases", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check("bare directory exits non-zero without a result",
          p.returncode != 0 and r is None, "exit %d" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
