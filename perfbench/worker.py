"""One workload in one process: set up, play whole passes, check, report.

Started by run.py with the monotonic time at which it spawned this
process, so that set-up time counts interpreter start and imports.
Prints human-readable lines and, last, one JSON object for run.py.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 3  # per mode: a page's latency is the fastest of its passes
TAIL_GRID = (99, 95, 90, 75)
MIN_BEYOND = 10


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    return ap.parse_args(argv)


class Failure(Exception):
    """An output did not match what it must be; the run is not valid."""


class Played:
    def __init__(self, modes, n_pages):
        self.best = {label: [float("inf")] * n_pages for label, _, _ in modes}
        self.passes = dict.fromkeys(self.best, 0)
        self.outcomes = []  # pass 0, by position
        self.attempted = 0
        self.raised = 0


def play(work, modes, seconds, min_passes):
    """Whole passes over work.pages, cycling through `modes` (label, api,
    tracer or None), until `seconds` have passed and every mode has run
    `min_passes`.  Every pass must reproduce pass 0's outcome page for page;
    each page keeps its fastest latency per mode, so that interference from
    other tenants of the machine, which comes and goes within a second,
    does not decide the figures."""
    from workloads import outcome_of

    played = Played(modes, len(work.pages))
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    n = 0
    while n < min_passes * len(modes) or time.perf_counter() < deadline:
        label, api, tracer = modes[n % len(modes)]
        best = played.best[label]
        work.begin_pass("pass%d" % n)
        if tracer is not None:
            tracer.install()
        try:
            for i, page in enumerate(work.pages):
                if tracer is not None:
                    tracer.page = played.attempted
                played.attempted += 1
                t0 = clock()
                try:
                    results, new_wrapper, committed = work.serve(page, api)
                except Exception as e:  # counted as a failed operation, reported
                    t1 = clock()
                    played.raised += 1
                    got = ("raised", type(e).__name__, str(e))
                else:
                    t1 = clock()
                    got = outcome_of(results, new_wrapper, committed)
                best[i] = min(best[i], t1 - t0)
                if n == 0:
                    played.outcomes.append(got)
                elif got != played.outcomes[i]:
                    raise Failure(
                        "%s: page %s (position %d) gave another outcome in %s pass %d "
                        "than in pass 0" % (work.name, page.key, i, label, n))
        finally:
            if tracer is not None:
                tracer.uninstall()
            work.end_pass()
        played.passes[label] += 1
        n += 1
    return played


def check_exact(work, outcomes):
    for page, got in zip(work.pages, outcomes):
        status, extracted = got[0], got[1]
        want = {rule: sorted(tuple(p) for p in paths) for rule, paths in page.expected.items()}
        if status != "ok" or extracted != want:
            raise Failure("%s: page %s extracted %r with status %s; expected %r"
                          % (work.name, page.key, extracted, status, want))


def digest(outcomes) -> str:
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


def tail(values):
    """The highest percentile of TAIL_GRID with MIN_BEYOND values above it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in TAIL_GRID:
        beyond = sum(1 for v in values if v > cuts[pct - 1])
        if beyond >= MIN_BEYOND:
            return pct, cuts[pct - 1], beyond
    raise Failure("%d pages per pass are too few for a latency tail" % len(values))


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy
    import wrapmend  # noqa: F401  (timed: part of set-up)
    from wrapmend import kernels, metrics
    import tracing
    import workloads
    t_imported = time.perf_counter()

    workdir = Path(args.workdir)
    warm = workloads.warmup(args.workload, args.seed, workdir)
    t_ready_start = time.perf_counter()
    workloads.load_site_wrappers(warm.sites)  # the first load reads the schema
    plain = ("untraced", tracing.plain_api(), None)
    play(warm, [plain], 0, 1)
    t_ready = time.perf_counter()
    setup_s = (t_imported - args.spawned_at) + (t_ready - t_ready_start)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work = workloads.build(args.workload, args.seed, args.scale, workdir)
    workloads.load_site_wrappers(work.sites)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "pages_per_pass": len(work.pages),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "have_numba": kernels.HAVE_NUMBA,
        "jit_enabled": kernels.jit_enabled(),
        "kernels.path": "jit" if kernels.jit_enabled() else "pure",
    }
    report = {"stamp": stamp}
    tracer = tracing.Tracer() if args.trace else None
    modes = [plain] + ([("traced", tracer.api(), tracer)] if tracer else [])
    try:
        played = play(work, modes, args.seconds, MIN_PASSES)
        if work.exact:
            check_exact(work, played.outcomes)
        pct, cut, beyond = tail(played.best["untraced"])
    except Failure as e:
        print("FAILED CHECK: %s" % e, file=sys.stderr)
        report.update(correct=False, attempted=1, failed=0, metrics={})
        print(json.dumps(report))
        return 1

    outcomes = played.outcomes
    tp = fp = fn = 0
    for page, got in zip(work.pages, outcomes):
        if got[0] != "raised":
            a, b, c = workloads.score(page, got[1])
            tp, fp, fn = tp + a, fp + b, fn + c
    best = played.best["untraced"]
    pages_per_s = len(best) / (sum(best) / 1e9)
    stamp.update(
        passes=played.passes,
        results_digest=digest(outcomes),
        tp=tp, fp=fp, fn=fn,
        tail="p%d of %d pages (each the fastest of %d passes), %d beyond it"
        % (pct, len(best), played.passes["untraced"], beyond),
    )
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        traced = played.best["traced"]
        traced_pps = len(traced) / (sum(traced) / 1e9)
        out = tracing.layer_metrics(tracer.spans, played.passes["traced"] * len(traced))
        out["trace.untraced_pages_per_s"] = (pages_per_s, "1/s")
        out["trace.traced_pages_per_s"] = (traced_pps, "1/s")
        out["trace.overhead_share"] = (1 - traced_pps / pages_per_s, "ratio")
        stamp["spans"] = len(tracer.spans)
    else:
        served = sum(1 for got in outcomes if got[0] not in ("failed", "raised"))
        out = {
            "setup_s": (setup_s, "s"),
            "pages_per_s": (pages_per_s, "1/s"),
            "page_latency_p50_ms": (statistics.median(best) / 1e6, "ms"),
            "page_latency_tail_ms": (cut / 1e6, "ms"),
            "served_share": (served / len(outcomes), "ratio"),
            "extract_f1": (metrics.compute_metrics(tp, fp, fn).raw_f1 or 0.0, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    report.update(
        correct=True,
        attempted=played.attempted,
        failed=played.raised,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
