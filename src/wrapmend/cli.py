"""Operator command line.

Four commands: `run` executes a wrapper over one or more page snapshots
(extra pages form the bundle process_flow retries against), `mutate`
produces a deterministically damaged copy of a page plus its ground
truth, `eval` scores a generated corpus, `history` lists a wrapper's
stored versions.

Exit codes: 0 when a run produced data (whether or not self-repair was
needed; the emitted document's `status` field says which), 20 when
extraction failed outright, 2 for usage errors and unreadable input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import replace

from .corpus import DEFAULT_RATE, CaseError, evaluate_corpus, flatten_results, with_algorithm
from .dom import read_page, serialize
from .engine import ExecutionContext, execute_wrapper
from .metrics import eval_table
from .model import WrapperFormatError, load_wrapper
from .mutate import OPERATIONS, MutationSpec, mutate_tree, truth_to_jsonable
from .repo import NotFoundError, StorageError, WrapperStore

EXIT_OK = 0
EXIT_FAILED = 20
EXIT_USAGE = 2


def _usage(msg: str) -> int:
    print("wrapmend: %s" % msg, file=sys.stderr)
    return EXIT_USAGE


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _overall_status(results, new_wrapper) -> str:
    seen = set()

    def walk(rs):
        for r in rs:
            seen.add(r.status)
            for kids in r.children:
                walk(kids)

    walk(results)
    if "failed" in seen:
        return "failed"
    if new_wrapper is not None or "adapted" in seen:
        return "adapted"
    return "ok"


def _delta_line(report) -> str:
    # config_delta carries full before/after summaries; only the keys that
    # moved are worth a line in the version log
    before = report.config_delta.get("before", {})
    after = report.config_delta.get("after", {})
    bits = [
        "%s: %s -> %s" % (k, before.get(k), after.get(k))
        for k in sorted(set(before) | set(after))
        if before.get(k) != after.get(k)
    ]
    if report.template_action != "none":
        bits.append("template %s" % report.template_action)
    return "; ".join(bits) or "no config change"


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

    results, reports, new_wrapper = execute_wrapper(
        wrapper, ExecutionContext(pages=tuple(pages))
    )
    status = _overall_status(results, new_wrapper)

    committed = None
    if args.commit and new_wrapper is not None:
        store = WrapperStore(args.store)
        summary = tuple(
            (r.rule_name, r.trigger, _delta_line(r)) for r in reports if r.succeeded
        )
        try:
            try:
                store.history(new_wrapper.name)
            except NotFoundError:
                # first contact with this store: seed the chain with the
                # version that just ran, then commit its successor
                store.commit(wrapper, summary=(("*", "import", "seeded from file"),))
            committed = store.commit(new_wrapper, summary=summary).version
        except StorageError as e:
            return _usage("commit failed: %s" % e)

    doc = {
        "wrapper": wrapper.name,
        "version": wrapper.version,
        "status": status,
        "results": [r.to_dict() for r in results],
        "reports": [r.to_dict() for r in reports],
        "new_version": new_wrapper.version if new_wrapper is not None else None,
        "committed": committed,
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
        print("%s v%d: %s" % (wrapper.name, wrapper.version, status))
        matches = sum(len(paths) for paths in flatten_results(results).values())
        print("matches: %d  repairs: %d" % (matches, len(reports)))
        for r in reports:
            print(
                "  %s [%s] %s: %s"
                % (
                    r.rule_name,
                    r.trigger,
                    "ok" if r.succeeded else "failed",
                    _delta_line(r),
                )
            )
        if committed is not None:
            print("committed v%d" % committed)
    return EXIT_FAILED if status == "failed" else EXIT_OK


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
    mut.add_argument("--rate", type=float, default=DEFAULT_RATE)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
