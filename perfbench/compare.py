#!/usr/bin/env python3
"""Summarize benchmark result files: per workload and metric, the median,
quartiles and spread (interquartile distance over median) across seeds,
checked against the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py .bench_results/*-trace0.json

Refuses to pool results whose kernel path (jit or pure), nproc or source
digest differ: those are different systems, not repeated runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

POOLED_BY = ("kernels.path", "nproc", "source_digest", "scale")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", type=Path)
    ap.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args(argv)

    bench = json.loads(args.benchmark.read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    by_workload = {}
    identity = None
    for path in args.results:
        doc = json.loads(path.read_text())
        ident = tuple(doc["stamp"].get(k) for k in POOLED_BY)
        if identity is None:
            identity = ident
        elif ident != identity:
            print("refusing to pool %s: %s differs (%r vs %r)"
                  % (path, "/".join(POOLED_BY), ident, identity), file=sys.stderr)
            return 2
        by_workload.setdefault(doc["stamp"]["workload"], []).append(doc)

    worst = 0.0
    for workload, docs in sorted(by_workload.items()):
        print("%s (%d runs, seeds %s)" % (workload, len(docs),
                                         sorted(d["stamp"]["seed"] for d in docs)))
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print("  %-36s median %12.6g  q1 %12.6g  q3 %12.6g  spread %7.4f  bound %-5s %s"
                  % (name, med, q1, q3, spread, bound, flag))
    print("largest spread / bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
