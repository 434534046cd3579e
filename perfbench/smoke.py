#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

Runs a tiny size of every workload untraced and traced and checks that
each run passes its output checks and emits exactly the metric names
BENCHMARK.json declares.  Then runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must fail without printing a
result.  Exits non-zero on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s exited %d: %s" % (tag, proc.returncode, proc.stderr[-500:]))
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s"
                                % (tag, result["correct"], result["attempted"]))
            if sorted(result["metrics"]) != sorted(declared[trace]):
                problems.append("%s: metric names differ from BENCHMARK.json: extra %s, missing %s"
                                % (tag, sorted(set(result["metrics"]) - set(declared[trace])),
                                   sorted(set(declared[trace]) - set(result["metrics"]))))
            print("%-22s %s" % (tag, "ok" if len(problems) == before else "FAILED"))

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the library the benchmark exited %d and printed %r"
                            % (proc.returncode, proc.stdout[-200:]))
        else:
            print("%-22s ok (exit %d)" % ("bare directory", proc.returncode))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
