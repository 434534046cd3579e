"""Operator command line.

Four commands: `run` executes a wrapper over one or more page snapshots
(extra pages form the bundle process_flow retries against), `mutate`
produces a deterministically damaged copy of a page plus its ground
truth, `eval` scores a generated corpus, `history` lists a wrapper's
stored versions.

Exit codes: `run` exits 20 when the page status (engine.page_status)
is "failed": any result at any depth failed, even if other rules
produced data.  Otherwise it exits 0, whether the status is "ok" or
"adapted".  Every command exits 2 for usage errors, unreadable input
and a failed commit.  Text goes to stdout as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import replace

from .corpus import (
    DEFAULT_RATE,
    CaseError,
    evaluate_corpus,
    flatten_results,
    rate_arg,
    with_algorithm,
)
from .dom import read_page, serialize
from .engine import ExecutionContext
from .metrics import eval_table
from .model import WrapperFormatError, load_wrapper
from .mutate import OPERATIONS, MutationSpec, mutate_tree, truth_to_jsonable
from .repo import StorageError, WrapperStore, run_snapshot

EXIT_OK = 0
EXIT_FAILED = 20
EXIT_USAGE = 2


def _usage(msg: str) -> int:
    print("wrapmend: %s" % msg, file=sys.stderr)
    return EXIT_USAGE


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def cmd_run(args) -> int:
    if args.commit and not args.store:
        return _usage("--commit needs --store")
    try:
        wrapper = load_wrapper(args.wrapper)
    except (OSError, WrapperFormatError) as e:
        return _usage("cannot load wrapper %s: %s" % (args.wrapper, e))
    try:
        pages = [read_page(path, source_id=str(path)) for path in args.pages]
    except OSError as e:
        return _usage("cannot read page: %s" % e)

    if args.algorithm:
        wrapper = with_algorithm(wrapper, args.algorithm)
    if args.no_adapt:
        wrapper = wrapper.map_rules(lambda _, rule: replace(rule, adaptation=None))

    try:
        store = None
        if args.commit:
            # asked to commit, a store that cannot be made fails before
            # any page runs, whether or not the run repairs
            pathlib.Path(args.store).mkdir(parents=True, exist_ok=True)
            store = WrapperStore(args.store)
        snap = run_snapshot(wrapper, ExecutionContext(pages=tuple(pages)), store)
    except (OSError, StorageError) as e:
        return _usage("commit failed: %s" % e)

    doc = {
        "wrapper": wrapper.name,
        "version": wrapper.version,
        "status": snap.status,
        "results": [r.to_dict() for r in snap.results],
        "reports": [r.to_dict() for r in snap.reports],
        "new_version": snap.new_wrapper.version if snap.new_wrapper is not None else None,
        "committed": snap.committed,
    }
    text = _dumps(doc)
    if args.out:
        try:
            pathlib.Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as e:
            return _usage("cannot write run document: %s" % e)
    fmt = args.format or "json"
    if fmt == "json":
        if not args.out:
            print(text)
    else:
        print("%s v%d: %s" % (wrapper.name, wrapper.version, snap.status))
        matches = sum(len(paths) for paths in flatten_results(snap.results).values())
        print("matches: %d  repairs: %d" % (matches, len(snap.reports)))
        for r in snap.reports:
            print(
                "  %s [%s] %s: %s"
                % (r.rule_name, r.trigger, "ok" if r.succeeded else "failed", r.delta_line())
            )
        if snap.committed is not None:
            print("committed v%d" % snap.committed)
    return EXIT_FAILED if snap.status == "failed" else EXIT_OK


def cmd_mutate(args) -> int:
    page_path = pathlib.Path(args.page)
    try:
        tree = read_page(page_path, source_id=page_path.name)
    except OSError as e:
        return _usage("cannot read page: %s" % e)
    spec = MutationSpec(
        operations=tuple(args.op) if args.op else OPERATIONS,
        seed=args.seed,
        rate=args.rate,
    )
    mutated, mapping = mutate_tree(tree, spec)

    out = pathlib.Path(args.out or page_path.with_name(page_path.stem + ".mutated.html"))
    truth = pathlib.Path(
        args.truth or page_path.with_name(page_path.stem + ".truth.json")
    )
    doc = {
        "page": page_path.name,
        "spec": spec.to_dict(),
        "mapping": truth_to_jsonable(mapping),
    }
    try:
        out.write_text(serialize(mutated), encoding="utf-8")
        truth.write_text(_dumps(doc) + "\n", encoding="utf-8")
    except OSError as e:
        return _usage("cannot write mutation output: %s" % e)

    # attribute-level damage keeps paths identical, so this only counts
    # structural movement; the truth map is the full story
    moved = sum(1 for old, new in mapping.items() if new != old)
    fmt = args.format or "table"
    if fmt == "json":
        print(
            _dumps(
                {
                    "mutated": str(out),
                    "truth": str(truth),
                    "nodes": len(mapping),
                    "moved_or_deleted": moved,
                }
            )
        )
    else:
        print(
            "wrote %s (%d nodes, %d moved or deleted), ground truth in %s"
            % (out, len(mapping), moved, truth)
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    root = pathlib.Path(args.corpus)
    if not root.is_dir():
        return _usage("not a corpus directory: %s" % root)
    algorithm = args.algorithm or "weighted"
    try:
        outcomes = evaluate_corpus(root, algorithm)
    except CaseError as e:
        return _usage(str(e))
    if len(outcomes) <= 1:  # nothing but the empty "overall" entry
        return _usage("no scenario cases under %s" % root)
    fmt = args.format or "table"
    if fmt == "json":
        print(_dumps({name: o.to_dict() for name, o in outcomes.items()}))
    else:  # "overall" is the last entry
        print(eval_table(algorithm, outcomes.values()))
    return EXIT_OK


def cmd_history(args) -> int:
    if not args.store:
        return _usage("history needs --store")
    try:
        records = WrapperStore(args.store).history(args.name)
    except StorageError as e:
        return _usage(str(e))
    except OSError as e:
        return _usage("cannot read store: %s" % e)
    fmt = args.format or "table"
    if fmt == "json":
        print(_dumps([r.to_dict() for r in records]))
    else:
        for r in records:
            summary = (
                ", ".join(
                    "%s[%s] %s" % (rule, trigger, delta)
                    for rule, trigger, delta in r.change_summary
                )
                or "-"
            )
            print(
                "v%-3d %s  %s  %s"
                % (r.version, r.timestamp, r.content_digest[:12], summary)
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wrapmend",
        description="run, repair, and evaluate self-adapting web wrappers",
    )
    ap.add_argument("--store", help="wrapper repository directory")
    ap.add_argument(
        "--algorithm",
        choices=("simple", "weighted"),
        help="pin every rule to one matching algorithm",
    )
    ap.add_argument("--seed", type=int, default=0, help="RNG seed for mutate")
    ap.add_argument(
        "--format",
        choices=("json", "table"),
        help="output format (default: json for run, table otherwise)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a wrapper over page snapshots")
    run.add_argument("wrapper", help="wrapper JSON file")
    run.add_argument(
        "pages", nargs="+", metavar="page", help="HTML snapshots; extras form the bundle"
    )
    run.add_argument(
        "--commit", action="store_true", help="commit an adapted wrapper to --store"
    )
    run.add_argument(
        "--no-adapt", action="store_true", help="disable self-repair (baseline mode)"
    )
    run.add_argument("--out", help="write the run document to this file")
    run.set_defaults(func=cmd_run)

    mut = sub.add_parser("mutate", help="damage a page deterministically")
    mut.add_argument("page", help="HTML file to mutate")
    mut.add_argument(
        "--op",
        action="append",
        choices=OPERATIONS,
        help="operation to include (repeatable; default: all)",
    )
    mut.add_argument("--rate", type=rate_arg, default=DEFAULT_RATE)
    mut.add_argument("--out", help="mutated HTML path")
    mut.add_argument("--truth", help="ground-truth JSON path")
    mut.set_defaults(func=cmd_mutate)

    ev = sub.add_parser("eval", help="score a generated corpus")
    ev.add_argument("corpus", help="corpus root directory")
    ev.set_defaults(func=cmd_eval)

    hist = sub.add_parser("history", help="list a wrapper's stored versions")
    hist.add_argument("name", help="wrapper name in the store")
    hist.set_defaults(func=cmd_history)

    return ap


def main(argv=None) -> int:
    sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
