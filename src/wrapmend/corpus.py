"""Synthetic evaluation corpus: seeded product listings, one mutation
profile per scenario, and ground-truth mappings for scoring repairs.

Each case directory holds original.html, mutated.html, wrapper.json and
truth.json.  truth.json records where every original node ended up
("mapping", mutated path or null for deleted) and what the wrapper
extracted on the original page ("expected", per rule path).  Scoring
runs the wrapper on the mutated page: an extracted path is a true
positive iff it equals the mapped location of an expected node; targets
whose node was deleted outright are excluded rather than counted against
the wrapper.
"""

import argparse
import json
import pathlib
import random
import sys
from dataclasses import replace

from wrapmend.constraints import CardinalityConstraint, DatatypeConstraint
from wrapmend.dom import DomTree, enumerate_subtrees, parse_html, read_page, serialize
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.metrics import compute_metrics, eval_table
from wrapmend.model import (
    AdaptationConfig,
    Rule,
    Wrapper,
    capture_example,
    load_wrapper,
    save_wrapper,
)
from wrapmend.mutate import (
    OPERATIONS,
    MutationSpec,
    mutate_tree,
    path_to_str,
    truth_to_jsonable,
)
from wrapmend.xpath import FallbackPlan, generate_plan

SCENARIOS = (
    ("relabel", ("change_class_value",)),
    ("attribute_loss", ("drop_attribute", "rename_attribute")),
    ("wrapped", ("insert_wrapper_element",)),
    ("flattened", ("remove_level",)),
    ("shuffled", ("reorder_siblings",)),
    ("duplicated", ("duplicate_record",)),
    ("mixed", OPERATIONS),
)

DEFAULT_RATE = 0.15


def rate_arg(text: str) -> float:
    """argparse type of a --rate option: a mutation rate in [0, 1]."""
    try:
        rate = float(text)
    except ValueError:
        rate = None
    if rate is None or not 0.0 <= rate <= 1.0:  # nan compares false
        raise argparse.ArgumentTypeError("%r is not a rate in [0, 1]" % text)
    return rate

_AUTHORED_AT = "2026-08-18T00:00:00+00:00"

_ADJ = ("Atlas", "Breeze", "Cobalt", "Drift", "Ember", "Flux", "Granite", "Halo")
_NOUN = ("Lamp", "Kettle", "Router", "Speaker", "Monitor", "Charger", "Tripod", "Fan")
_FEATURES = (
    "wireless",
    "compact",
    "rechargeable",
    "steel body",
    "two year warranty",
    "usb-c",
    "quiet motor",
    "oil-free pump",
)
_NAV = ("Home", "Products", "Deals", "Support", "About")
_SPECS = (
    ("Shipping", "2-4 days"),
    ("Returns", "30 days"),
    ("Warranty", "24 months"),
    ("Payment", "card or invoice"),
    ("Pickup", "in store"),
)


def generate_page(rng: random.Random) -> str:
    """One product listing page.  Records share a shape within a page (the
    detail count is drawn once) so that an intact page scores uniformly.
    The promo box is a near-record decoy: it shares the deep list bulk
    without the record's child layout."""
    n_records = rng.randint(5, 9)
    n_details = rng.randint(2, 4)
    records = []
    for _ in range(n_records):
        name = "%s %s" % (rng.choice(_ADJ), rng.choice(_NOUN))
        if rng.random() < 0.4:
            name += " Mk %d" % rng.randint(2, 9)
        price = "%d.%02d" % (rng.randint(3, 499), rng.randint(0, 99))
        details = "".join(
            "<li>%s</li>" % f for f in rng.sample(_FEATURES, n_details)
        )
        records.append(
            '<div class="record"><span class="name">%s</span>'
            '<span class="price">%s</span><ul class="details">%s</ul></div>'
            % (name, price, details)
        )
    nav = "".join("<li>%s</li>" % t for t in _NAV[: rng.randint(3, 5)])
    rows = "".join(
        "<tr><td>%s</td><td>%s</td></tr>" % pair
        for pair in _SPECS[: rng.randint(3, 5)]
    )
    promo = "".join(
        "<li>%s</li>" % f for f in rng.sample(_FEATURES, n_details)
    )
    return (
        "<html><head><title>Products</title></head><body>"
        '<div class="header"><h1>Example Retail</h1></div>'
        '<ul class="nav">%s</ul>'
        '<div id="main">%s</div>'
        '<table class="specs">%s</table>'
        '<div class="promo"><span class="promo-title">weekly highlights</span>'
        '<ul class="promo-list">%s</ul></div>'
        '<div class="footer"><p>catalog generated nightly</p></div>'
        "</body></html>" % (nav, "".join(records), rows, promo)
    )


def _record_paths(page: DomTree):
    return [
        path
        for path, node in enumerate_subtrees(page, label="div")
        if node.attributes.get("class") == "record"
    ]


def _authored(plan: FallbackPlan) -> FallbackPlan:
    # a hand-written wrapper carries one locator per rule; the fallback
    # arsenal only appears once a repair regenerates the plan.  Keeping
    # the generated fallbacks here would let the locators absorb nearly
    # every mutation and leave the repair path untested.
    return FallbackPlan(best=plan.best, best_tag=plan.best_tag, fallbacks=())


def author_wrapper(page: DomTree, name: str = "listing") -> Wrapper:
    """The wrapper a developer would write against the intact page: a
    record list rule with name/price children, one precise locator per
    rule, all repair triggers armed."""
    recs = _record_paths(page)
    rec0 = recs[0]

    def cfg():
        return AdaptationConfig(
            algorithm="weighted",
            threshold=(0.4, 0.95),
            triggers=("top_down", "bottom_up", "process_flow"),
        )

    record = Rule(
        name="record",
        plan=_authored(generate_plan(page, rec0, cohort=recs)),
        constraints=(CardinalityConstraint(1, None),),
        adaptation=cfg(),
        stored_example=capture_example(page, rec0, captured_at=_AUTHORED_AT),
        children=(
            Rule(
                name="name",
                plan=_authored(generate_plan(page, rec0 + (0,), context_path=rec0)),
                constraints=(
                    CardinalityConstraint(1, 1),
                    DatatypeConstraint("pattern", pattern=r"[A-Za-z][A-Za-z0-9 ]*"),
                ),
                adaptation=cfg(),
                stored_example=capture_example(
                    page, rec0 + (0,), ancestor_level=1, captured_at=_AUTHORED_AT
                ),
            ),
            Rule(
                name="price",
                plan=_authored(generate_plan(page, rec0 + (1,), context_path=rec0)),
                constraints=(
                    CardinalityConstraint(1, 1),
                    DatatypeConstraint("decimal"),
                ),
                adaptation=cfg(),
                stored_example=capture_example(
                    page, rec0 + (1,), ancestor_level=1, captured_at=_AUTHORED_AT
                ),
            ),
        ),
    )
    return Wrapper(name=name, version=1, root_rules=(record,))


def flatten_results(results, prefix: str = "") -> dict:
    """rule path -> extracted node paths, pooled across parent matches."""
    out = {}
    for r in results:
        path = prefix + r.rule_name
        bucket = out.setdefault(path, [])
        for (p, _), kids in zip(r.matches, r.children, strict=True):
            bucket.append(tuple(p))
            for sub_path, sub_paths in flatten_results(kids, path + "/").items():
                out.setdefault(sub_path, []).extend(sub_paths)
    return out


def expected_extraction(wrapper: Wrapper, page: DomTree) -> dict:
    results, reports, _ = execute_wrapper(wrapper, ExecutionContext(pages=(page,)))
    if reports:
        raise RuntimeError("wrapper should run clean on its own page")
    return flatten_results(results)


def build_case(case_dir, operations, page_seed: int, mutation_seed: int, rate: float):
    case_dir = pathlib.Path(case_dir)
    case_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(page_seed)
    page = parse_html(generate_page(rng), source_id="original")
    wrapper = author_wrapper(page)
    spec = MutationSpec(operations=operations, seed=mutation_seed, rate=rate)
    mutated, mapping = mutate_tree(page, spec)
    expected = expected_extraction(wrapper, page)

    (case_dir / "original.html").write_text(serialize(page), encoding="utf-8")
    (case_dir / "mutated.html").write_text(serialize(mutated), encoding="utf-8")
    save_wrapper(wrapper, case_dir / "wrapper.json")
    truth = {
        "mapping": truth_to_jsonable(mapping),
        "expected": {
            rule: [list(p) for p in paths] for rule, paths in sorted(expected.items())
        },
    }
    (case_dir / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_corpus(root, cases: int = 10, rate: float = DEFAULT_RATE, seed: int = 0):
    """Materialize every scenario; returns the case directories written."""
    root = pathlib.Path(root)
    written = []
    for s_idx, (scenario, operations) in enumerate(SCENARIOS):
        for case in range(cases):
            case_dir = root / scenario / ("case%02d" % case)
            build_case(
                case_dir,
                operations,
                page_seed=seed + s_idx * 1000 + case,
                mutation_seed=seed + s_idx * 1000 + case + 500,
                rate=rate,
            )
            written.append(case_dir)
    return written


def with_algorithm(wrapper: Wrapper, algorithm: str) -> Wrapper:
    """The same wrapper with every rule pinned to one scoring algorithm."""

    def pin(_, rule):
        if rule.adaptation is None:
            return rule
        cfg = replace(rule.adaptation, algorithm=algorithm, algorithm_order=())
        return replace(rule, adaptation=cfg)

    return wrapper.map_rules(pin)


class CaseError(Exception):
    """A corpus case whose files cannot be read; the message names it."""


def _truth_path(value) -> tuple:
    """A node path from truth.json: a list of child indices."""
    if type(value) is not list or not all(type(i) is int for i in value):
        raise TypeError("not a node path: %r" % (value,))
    return tuple(value)


def evaluate_case(case_dir, algorithm: str = "weighted"):
    """(tp, fp, fn) for one case: run the wrapper on the mutated page and
    compare against the mapped expected targets."""
    case_dir = pathlib.Path(case_dir)
    try:
        wrapper = with_algorithm(load_wrapper(case_dir / "wrapper.json"), algorithm)
        mutated = read_page(case_dir / "mutated.html", source_id="mutated")
        truth = json.loads((case_dir / "truth.json").read_bytes())
        # original path string -> mutated path, for nodes that were kept
        mapping = {
            old: _truth_path(new) for old, new in truth["mapping"].items() if new is not None
        }
        expected = {
            rule: [path_to_str(_truth_path(p)) for p in paths]
            for rule, paths in truth["expected"].items()
        }
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise CaseError("cannot read case %s: %s" % (case_dir, e))

    results, _, _ = execute_wrapper(wrapper, ExecutionContext(pages=(mutated,)))
    resolved = flatten_results(results)

    tp = fp = fn = 0
    for rule, originals in expected.items():
        mapped = {mapping[p] for p in originals if p in mapping}
        got = set(resolved.get(rule, ()))
        tp += len(got & mapped)
        fp += len(got - mapped)
        fn += len(mapped - got)
    return tp, fp, fn


def evaluate_corpus(root, algorithm: str = "weighted") -> dict:
    """Per-scenario EvalOutcomes, then a pooled "overall" entry."""
    root = pathlib.Path(root)
    out = {}
    total = [0, 0, 0]
    for scenario, _ in SCENARIOS:
        sdir = root / scenario
        if not sdir.is_dir():
            continue
        tp = fp = fn = 0
        for case_dir in sorted(sdir.iterdir()):
            if not (case_dir / "truth.json").exists():
                continue
            a, b, c = evaluate_case(case_dir, algorithm)
            tp, fp, fn = tp + a, fp + b, fn + c
        out[scenario] = compute_metrics(tp, fp, fn, scenario=scenario)
        total = [total[0] + tp, total[1] + fp, total[2] + fn]
    out["overall"] = compute_metrics(*total, scenario="overall")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="wrapmend.corpus", description="build the synthetic evaluation corpus"
    )
    ap.add_argument("--out", default="corpus", help="corpus root directory")
    ap.add_argument("--cases", type=int, default=10, help="cases per scenario")
    ap.add_argument("--rate", type=rate_arg, default=DEFAULT_RATE)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--evaluate",
        action="store_true",
        help="score the corpus after building it, as `wrapmend eval` prints it",
    )
    args = ap.parse_args(argv)
    try:
        written = build_corpus(args.out, cases=args.cases, rate=args.rate, seed=args.seed)
    except OSError as e:
        print("%s: cannot write corpus: %s" % (ap.prog, e), file=sys.stderr)
        return 2
    print("wrote %d cases under %s" % (len(written), args.out))
    if args.evaluate:
        for algorithm in ("weighted", "simple"):
            print(eval_table(algorithm, evaluate_corpus(args.out, algorithm).values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
