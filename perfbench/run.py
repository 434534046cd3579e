#!/usr/bin/env python3
"""wrapmend benchmark: play a seeded stream of page snapshots through
parse_html -> execute_wrapper (-> WrapperStore checkout/commit) and print
every metric by name and unit.

    python3 perfbench/run.py --workload steady|drift|versioned --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Each
workload runs in its own worker process (so peak memory belongs to it),
with SETUP_PROBES set-up-only processes around it; their set-up times and
the worker's own give the reported median.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced run, and the spans are written next to
the result file under .bench_results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("steady", "drift", "versioned")
SETUP_PROBES = 10
TIMEOUT_S = 170


def _run_worker(args, extra, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(args.workdir),
    ] + extra
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("wrapmend benchmark: worker exceeded the time limit")
    lines = out.splitlines()
    if not lines:
        raise SystemExit("wrapmend benchmark: worker printed nothing (exit %d)" % proc.returncode)
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def _filesystem(path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _commit(root) -> str:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(src) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few small pages, for the smoke check")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "wrapmend" / "__init__.py").is_file():
        print("wrapmend benchmark: no src/wrapmend under %s; run from the "
              "repository root" % root, file=sys.stderr)
        return 2

    args.workdir = root / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    args.workdir.mkdir(parents=True, exist_ok=True)
    def probe_setup(times):
        for _ in range(times):
            code, _, probe = _run_worker(args, ["--setup-only"], deadline)
            if code != 0:
                raise SystemExit("wrapmend benchmark: set-up probe failed")
            setups.append(probe["setup_s"])

    setups = []
    # half the probes before the run and half after, so that the median
    # samples the machine at both ends of it
    probes = 0 if args.trace else SETUP_PROBES
    try:
        probe_setup(probes // 2)
        extra = ["--spans", str(results_dir / (stem + ".spans.jsonl"))] if args.trace else []
        code, lines, report = _run_worker(args, extra, deadline)
        probe_setup(probes - probes // 2)
        fs = _filesystem(args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    for line in lines:
        print(line)
    stamp = report.pop("stamp")
    if "setup_s" in report["metrics"]:
        setups.append(report["metrics"]["setup_s"]["value"])
        report["metrics"]["setup_s"]["value"] = statistics.median(setups)
        stamp["setup_s_samples"] = setups
    stamp.update(commit=_commit(root), source_digest=_source_digest(src), store_filesystem=fs)
    (results_dir / (stem + ".json")).write_text(
        json.dumps({"stamp": stamp, **report}, indent=2, sort_keys=True) + "\n"
    )
    for key in sorted(stamp):
        print("# %s: %s" % (key, stamp[key]))
    for name, m in report["metrics"].items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if code != 0 or not report["correct"]:
        print("wrapmend benchmark: output check failed", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
