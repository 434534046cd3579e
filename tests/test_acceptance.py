"""Acceptance gate: nine end-to-end checks over the whole stack.

Each check asserts its stated tolerance and runtime budget and prints
one summary line (visible with -s).  Run as:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import gc
import random
import time

import pytest

from conftest import random_node, random_wrapper
from test_matching import oracle_stm

from wrapmend.constraints import CardinalityConstraint, validate_results
from wrapmend.corpus import build_corpus, evaluate_corpus
from wrapmend.dom import parse_html, parse_snippet, subtree_size
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.matching import simple_tree_matching, weighted_tree_matching
from wrapmend.metrics import compute_metrics
from wrapmend.model import load_wrapper
from wrapmend.repo import CorruptionError, WrapperStore
from wrapmend.template import refine, template_from_tree, template_match
from wrapmend.xpath import apply_plan, evaluate, generate_plan, relaxation_variants

CORPUS_CASES = 10
CORPUS_RATE = 0.15
CORPUS_SEED = 0


def _line(num: int, text: str) -> None:
    print("criterion %d PASS: %s" % (num, text))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    t0 = time.perf_counter()
    build_corpus(root, cases=CORPUS_CASES, rate=CORPUS_RATE, seed=CORPUS_SEED)
    return root, time.perf_counter() - t0


@pytest.fixture(scope="module")
def adaptation_runs(corpus):
    """Every corpus case executed once against its mutated page."""
    root, _ = corpus
    runs = []
    for case_dir in sorted(root.glob("*/case*")):
        wrapper = load_wrapper(case_dir / "wrapper.json")
        page = parse_html(
            (case_dir / "mutated.html").read_text(), source_id=case_dir.name
        )
        results, reports, new_wrapper = execute_wrapper(
            wrapper, ExecutionContext(pages=(page,))
        )
        runs.append((case_dir, wrapper, page, results, reports, new_wrapper))
    return runs


def _walk_results(results, prefix=""):
    """(rule path, status, matches) triples, one per context."""
    out = []
    for r in results:
        path = prefix + r.rule_name
        out.append((path, r.status, list(r.matches)))
        for kids in r.children:
            out.extend(_walk_results(kids, path + "/"))
    return out


def test_criterion_1_hand_trace():
    partial_a = parse_snippet("<a><b></b><c></c></a>")
    partial_b = parse_snippet("<a><b></b></a>")
    full_a = parse_snippet("<a><b></b><c></c></a>")
    full_b = parse_snippet("<a><b></b><c></c></a>")
    t0 = time.perf_counter()
    half = weighted_tree_matching(partial_a, partial_b)
    one = weighted_tree_matching(full_a, full_b)
    elapsed = time.perf_counter() - t0
    assert half == 0.5
    assert one == 1.0
    assert elapsed < 0.001
    _line(1, "a(b,c) vs a(b) = 0.5, identical = 1.0 in %.3f ms" % (elapsed * 1e3))


def test_criterion_2_self_identity_and_symmetry():
    rng = random.Random(2)
    # the generated trees hold no reference cycles, so the collector frees
    # nothing here; its full passes over the session's heap, set off by
    # millions of allocations, would be timed instead of the matcher
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(1000):
            tree = random_node(rng, max_depth=6, max_branch=5)
            assert abs(weighted_tree_matching(tree, tree) - 1.0) <= 1e-12
        for _ in range(1000):
            a = random_node(rng, max_depth=6, max_branch=5)
            b = random_node(rng, max_depth=6, max_branch=5)
            assert weighted_tree_matching(a, b) == weighted_tree_matching(b, a)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert elapsed < 5.0
    _line(2, "1000 identities within 1e-12, 1000 symmetric pairs in %.2f s" % elapsed)


def test_criterion_3_stm_oracle_equivalence():
    rng = random.Random(3)
    t0 = time.perf_counter()
    pairs = 0
    while pairs < 500:
        a = random_node(rng, max_depth=3, max_branch=3, labels=("a", "b", "c"))
        b = random_node(rng, max_depth=3, max_branch=3, labels=("a", "b", "c"))
        if subtree_size(a) > 8 or subtree_size(b) > 8:
            continue
        if rng.random() < 0.5:
            b.label = a.label
        assert simple_tree_matching(a, b) == oracle_stm(a, b)
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(3, "%d random pairs match the brute-force oracle in %.2f s" % (pairs, elapsed))


def test_criterion_4_metric_arithmetic():
    simple = compute_metrics(1356, 92, 140)
    weighted = compute_metrics(1454, 12, 42)
    assert (simple.precision, simple.recall, simple.f1) == (93.65, 90.64, 92.13)
    assert (weighted.precision, weighted.recall, weighted.f1) == (99.18, 97.19, 98.18)
    _line(4, "totals reproduce 93.65/90.64/92.13 and 99.18/97.19/98.18")


def test_criterion_5_corpus_f_measure(corpus):
    root, build_seconds = corpus
    t0 = time.perf_counter()
    weighted = evaluate_corpus(root, "weighted")
    simple = evaluate_corpus(root, "simple")
    elapsed = build_seconds + (time.perf_counter() - t0)
    wf = weighted["overall"].raw_f1
    sf = simple["overall"].raw_f1
    assert wf is not None and wf >= 0.90
    assert sf is not None and wf >= sf
    assert elapsed < 120.0
    _line(
        5,
        "weighted F1 %.4f >= 0.90 and >= simple %.4f on %d scenarios in %.1f s"
        % (wf, sf, len(weighted) - 1, elapsed),
    )


def test_criterion_6_repair_soundness(adaptation_runs):
    adapted_cases = 0
    thresholds_checked = 0
    for case_dir, wrapper, page, results, reports, new_wrapper in adaptation_runs:
        intervals = {
            path: rule.adaptation.interval
            for path, rule in wrapper.iter_rules()
            if rule.adaptation is not None
        }
        for report in reports:
            if report.succeeded and report.chosen_threshold is not None:
                low, high = intervals[report.rule_name]
                assert low <= report.chosen_threshold <= high, case_dir
                thresholds_checked += 1
        if new_wrapper is None:
            continue
        adapted_cases += 1

        re_results, re_reports, re_wrapper = execute_wrapper(
            new_wrapper, ExecutionContext(pages=(page,))
        )
        # fixed point: nothing changes on the second pass
        assert re_wrapper is None, case_dir
        for report in re_reports:
            assert not (report.succeeded and report.config_delta), case_dir

        # every repaired rule holds up under independent re-validation
        repaired = {r.rule_name for r in reports if r.succeeded and r.config_delta}
        rules = dict(new_wrapper.iter_rules())
        for path, status, matches in _walk_results(re_results):
            if path in repaired and status != "failed":
                assert validate_results(matches, rules[path].constraints) == [], path
    assert adapted_cases > 0
    _line(
        6,
        "%d adapted cases re-validated, %d chosen thresholds inside their intervals"
        % (adapted_cases, thresholds_checked),
    )


def test_criterion_7_locator_round_trip(corpus):
    root, _ = corpus
    exactly_one = CardinalityConstraint(1, 1)
    nodes = 0
    relaxations = 0
    t0 = time.perf_counter()
    for page_path in sorted(root.glob("*/case*/original.html")):
        page = parse_html(page_path.read_text(), source_id=page_path.parent.name)
        stack = [((), page.root)]
        while stack:
            path, node = stack.pop()
            for i, c in enumerate(node.children):
                stack.append((path + (i,), c))
            plan = generate_plan(page, path)
            matches, used_tag = apply_plan(plan, page, exactly_one)
            assert [p for p, _ in matches] == [path], (page_path, path)
            assert matches[0][1] is node, (page_path, path)
            assert used_tag == plan.best_tag

            positional = [e for e in plan.fallbacks if e.tag == "positional"]
            for entry in positional:
                matched = set(map(tuple, evaluate(entry.expr, page)))
                for variant in relaxation_variants(entry.expr):
                    wider = set(map(tuple, evaluate(variant, page)))
                    assert matched <= wider, (page_path, path)
                    matched = wider
                    relaxations += 1
            nodes += 1
    elapsed = time.perf_counter() - t0
    _line(
        7,
        "%d nodes round-tripped via best, %d relaxation steps monotone in %.1f s"
        % (nodes, relaxations, elapsed),
    )


def test_criterion_8_template_soundness(adaptation_runs):
    checked = 0
    for case_dir, wrapper, page, results, reports, new_wrapper in adaptation_runs:
        if new_wrapper is None:
            continue
        old_rules = dict(wrapper.iter_rules())
        new_rules = dict(new_wrapper.iter_rules())
        for report in reports:
            if not (report.succeeded and report.config_delta):
                continue
            rule = new_rules[report.rule_name]
            if rule.template is None:
                continue
            old_stored = old_rules[report.rule_name].stored_example.subtree
            new_stored = rule.stored_example.subtree
            assert () in template_match(rule.template, old_stored), case_dir
            assert () in template_match(rule.template, new_stored), case_dir
            checked += 1
    assert checked > 0

    # refine only widens: anything accepted before stays accepted
    rng = random.Random(8)
    for _ in range(200):
        base = random_node(rng, max_depth=3, max_branch=3, labels=("a", "b", "c"))
        extra = random_node(rng, max_depth=3, max_branch=3, labels=("a", "b", "c"))
        extra.label = base.label
        before = template_from_tree(base)
        after = refine(before, extra)
        assert () in template_match(after, extra)
        probe = random_node(rng, max_depth=3, max_branch=3, labels=("a", "b", "c"))
        accepted_before = set(map(tuple, template_match(before, probe)))
        accepted_after = set(map(tuple, template_match(after, probe)))
        assert accepted_before <= accepted_after
    _line(8, "%d induced templates accept old and new examples; refine widened only" % checked)


def test_criterion_9_repository(tmp_path):
    store = WrapperStore(tmp_path / "store")
    rng = random.Random(909)
    wrappers = [random_wrapper(rng, name="w%03d" % i) for i in range(100)]
    for w in wrappers:
        store.commit(w)
        back = store.checkout(w.name, w.version)
        assert back.to_dict() == w.to_dict(), w.name

    # append-only: a later commit extends the log without rewriting it
    from dataclasses import replace

    target = wrappers[0]
    before = store.history(target.name)
    store.commit(replace(target, version=target.version + 1))
    after = store.history(target.name)
    assert len(after) == len(before) + 1
    assert after[: len(before)] == before

    # a flipped byte in stored content must not go unnoticed
    victim = wrappers[1]
    content_file = (tmp_path / "store" / victim.name) / ("v%d.json" % victim.version)
    data = bytearray(content_file.read_bytes())
    data[len(data) // 2] ^= 0x20
    content_file.write_bytes(bytes(data))
    with pytest.raises(CorruptionError):
        store.checkout(victim.name, victim.version)
    _line(9, "100 wrappers round-tripped, history append-only, tamper detected")
