from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wrapmend.dom import (
    detach_subtree,
    enumerate_subtrees,
    parse_html,
    parse_snippet,
    resolve,
    subtree_size,
)
from wrapmend.matching import (
    DEFAULT_LABELER,
    Labeler,
    best_matches,
    normalized_stm,
    simple_tree_matching,
    weighted_tree_matching,
)
from wrapmend import kernels

from conftest import build_node, build_tree, random_node, random_tree


# --- brute-force oracle -----------------------------------------------------
#
# Independent of the DP: enumerates every order-preserving injective child
# pairing explicitly and maximises over the sums.  Exponential, fine for the
# small trees it is used on.

def monotone_matchings(m, n):
    def rec(i, j):
        yield []
        for ii in range(i, m):
            for jj in range(j, n):
                for rest in rec(ii + 1, jj + 1):
                    yield [(ii, jj)] + rest

    return rec(0, 0)


def oracle_stm(a, b, labeler=DEFAULT_LABELER):
    if labeler.key(a) != labeler.key(b):
        return 0
    best = 0
    for matching in monotone_matchings(len(a.children), len(b.children)):
        total = sum(oracle_stm(a.children[i], b.children[j], labeler) for i, j in matching)
        best = max(best, total)
    return 1 + best


def oracle_wtm(a, b, labeler=DEFAULT_LABELER):
    if labeler.key(a) != labeler.key(b):
        return 0.0
    m, n = len(a.children), len(b.children)
    if m == 0 or n == 0:
        return 1.0
    best = 0.0
    for matching in monotone_matchings(m, n):
        total = sum(oracle_wtm(a.children[i], b.children[j], labeler) for i, j in matching)
        best = max(best, total)
    return best / max(m, n)


def t(src):
    return parse_snippet(src)


class TestSimpleTreeMatching:
    def test_identical_trees_count_all_nodes(self):
        a = t("<a><b></b><c></c></a>")
        assert simple_tree_matching(a, a) == 3

    def test_partial_overlap(self):
        a = t("<a><b></b><c></c></a>")
        b = t("<a><b></b></a>")
        assert simple_tree_matching(a, b) == 2

    def test_root_label_mismatch_scores_zero(self):
        assert simple_tree_matching(t("<a></a>"), t("<b></b>")) == 0

    def test_order_preserving(self):
        a = t("<a><b></b><c></c></a>")
        b = t("<a><c></c><b></b></a>")
        # only one of the two pairs can be kept without crossing
        assert simple_tree_matching(a, b) == 2

    def test_matches_oracle_on_random_trees(self):
        rng = random.Random(101)
        for _ in range(120):
            a = random_node(rng, max_depth=2, max_branch=2, labels=("a", "b", "c"))
            b = random_node(rng, max_depth=2, max_branch=2, labels=("a", "b", "c"))
            if rng.random() < 0.5:
                b.label = a.label
            got = simple_tree_matching(a, b)
            assert type(got) is int
            assert got == oracle_stm(a, b)

    def test_normalized_range_and_value(self):
        a = t("<a><b></b><c></c></a>")
        b = t("<a><b></b></a>")
        assert normalized_stm(a, b) == pytest.approx(0.8)
        assert normalized_stm(a, a) == 1.0
        assert normalized_stm(t("<a></a>"), t("<b></b>")) == 0.0


class TestWeightedTreeMatching:
    def test_dropped_sibling_halves_score(self):
        a = t("<a><b></b><c></c></a>")
        b = t("<a><b></b></a>")
        assert weighted_tree_matching(a, b) == 0.5

    def test_identical_trees_score_one(self):
        a = t("<a><b></b><c><d></d></c></a>")
        assert weighted_tree_matching(a, a) == 1.0

    def test_single_nodes(self):
        assert weighted_tree_matching(t("<a></a>"), t("<a></a>")) == 1.0
        assert weighted_tree_matching(t("<a></a>"), t("<b></b>")) == 0.0

    def test_leaf_against_branch(self):
        # one side childless: the else branch contributes the root's weight
        a = t("<a></a>")
        b = t("<a><b></b><c></c></a>")
        assert weighted_tree_matching(a, b) == 1.0

    def test_reorder_costs_half(self):
        a = t("<a><b></b><c></c></a>")
        b = t("<a><c></c><b></b></a>")
        assert weighted_tree_matching(a, b) == 0.5

    def test_nested_discount(self):
        a = t("<a><b><d></d></b><c></c></a>")
        b = t("<a><b><d></d></b></a>")
        assert weighted_tree_matching(a, b) == 0.5

    def test_matches_oracle_on_random_trees(self):
        rng = random.Random(202)
        for _ in range(120):
            a = random_node(rng, max_depth=2, max_branch=2, labels=("a", "b", "c"))
            b = random_node(rng, max_depth=2, max_branch=2, labels=("a", "b", "c"))
            if rng.random() < 0.5:
                b.label = a.label
            got = weighted_tree_matching(a, b)
            assert got == pytest.approx(oracle_wtm(a, b), abs=1e-12)

    def test_self_identity_random(self, rng):
        for _ in range(200):
            tree = random_tree(rng, max_depth=5, max_branch=4)
            assert abs(weighted_tree_matching(tree.root, tree.root) - 1.0) <= 1e-12

    def test_symmetry_random(self, rng):
        for _ in range(200):
            a = random_node(rng, max_depth=4, max_branch=3)
            b = random_node(rng, max_depth=4, max_branch=3)
            assert weighted_tree_matching(a, b) == weighted_tree_matching(b, a)

    def test_score_range(self, rng):
        for _ in range(200):
            a = random_node(rng, max_depth=4, max_branch=3)
            b = random_node(rng, max_depth=4, max_branch=3)
            s = weighted_tree_matching(a, b)
            assert 0.0 <= s <= 1.0 + 1e-12

    def test_stricter_labeler_never_raises_score(self, rng):
        loose = Labeler()
        strict = Labeler(use_element_name=True, use_class_attribute=True)
        for _ in range(100):
            a = random_node(rng, max_depth=3, max_branch=3, with_attrs=True)
            b = random_node(rng, max_depth=3, max_branch=3, with_attrs=True)
            assert (
                weighted_tree_matching(a, b, strict)
                <= weighted_tree_matching(a, b, loose) + 1e-12
            )


class TestLabeler:
    def test_at_least_one_component(self):
        with pytest.raises(ValueError):
            Labeler(use_element_name=False)

    def test_id_component_splits_labels(self):
        a = build_node("div", attrs={"id": "x"})
        b = build_node("div", attrs={"id": "y"})
        assert simple_tree_matching(a, b) == 1
        by_id = Labeler(use_id_attribute=True)
        assert simple_tree_matching(a, b, by_id) == 0

    def test_class_component(self):
        a = build_node("div", attrs={"class": "k"})
        b = build_node("div", attrs={"class": "k"})
        c = build_node("div")
        lab = Labeler(use_class_attribute=True)
        assert simple_tree_matching(a, b, lab) == 1
        assert simple_tree_matching(a, c, lab) == 0

    def test_round_trip(self):
        lab = Labeler(use_id_attribute=True)
        assert Labeler.from_dict(lab.to_dict()) == lab


class TestBestMatches:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            best_matches(t("<a></a>"), parse_html("<a></a>"), algorithm="fuzzy")

    def test_verbatim_subtree_scores_one(self):
        page = parse_html(
            "<html><body><div><p>x</p><p>y</p></div><div><p>z</p></div></body></html>"
        )
        stored = t("<div><p>a</p><p>b</p></div>")  # text is not part of the label
        ranked = best_matches(stored, page)
        assert ranked[0].score == 1.0
        assert ranked[0].rank == 1
        assert ranked[0].path == (0, 0)

    def test_scores_and_order(self):
        page = parse_html(
            "<html><body><div><p>x</p><p>y</p></div><div><p>z</p></div></body></html>"
        )
        stored = t("<div><p>a</p><p>b</p></div>")
        ranked = best_matches(stored, page)
        assert [c.path for c in ranked] == [(0, 0), (0, 1)]
        assert [c.score for c in ranked] == [1.0, 0.5]
        assert [c.rank for c in ranked] == [1, 2]

    def test_ties_break_by_document_order(self):
        page = parse_html("<html><body><div><p>x</p></div><div><p>y</p></div></body></html>")
        stored = t("<div><p>a</p></div>")
        ranked = best_matches(stored, page)
        assert [c.path for c in ranked] == [(0, 0), (0, 1)]
        assert ranked[0].score == ranked[1].score == 1.0

    def test_min_score_filters(self):
        page = parse_html(
            "<html><body><div><p>x</p><p>y</p></div><div><p>z</p></div></body></html>"
        )
        stored = t("<div><p>a</p><p>b</p></div>")
        assert len(best_matches(stored, page, min_score=0.6)) == 1
        assert best_matches(stored, page, min_score=1.5) == []

    def test_simple_algorithm_uses_normalized_scores(self):
        page = parse_html(
            "<html><body><div><p>x</p><p>y</p></div><div><p>z</p></div></body></html>"
        )
        stored = t("<div><p>a</p><p>b</p></div>")
        ranked = best_matches(stored, page, algorithm="simple")
        assert ranked[0].score == 1.0
        assert ranked[1].score == pytest.approx(0.8)

    def test_candidates_limited_to_matching_root_label(self):
        page = parse_html("<html><body><div></div><span></span></body></html>")
        stored = t("<span></span>")
        ranked = best_matches(stored, page)
        assert [c.path for c in ranked] == [(0, 1)]


GOLDEN_PATH = Path(__file__).with_name("golden_scores.json")
GOLDEN_LABELS = ("div", "span", "b")
GOLDEN_LABELERS = (
    Labeler(),
    Labeler(use_id_attribute=True),
    Labeler(use_class_attribute=True),
    Labeler(use_id_attribute=True, use_class_attribute=True),
    Labeler(use_element_name=False, use_class_attribute=True),
)


def golden_pairs():
    """The seeded (stored, page, labeler) triples golden_scores.json was
    recorded on: the stored root always shares its key with one page node,
    and odd seeds store a damaged copy of that node's subtree."""
    for seed in range(20):
        rng = random.Random(seed)
        page = random_tree(rng, max_depth=5, max_branch=4, labels=GOLDEN_LABELS,
                           with_attrs=True)
        stored = random_node(rng, max_depth=3, max_branch=3, labels=GOLDEN_LABELS,
                             with_attrs=True)
        _, anchor = rng.choice(enumerate_subtrees(page))
        if seed % 2:
            stored = detach_subtree(anchor)
            for _, node in enumerate_subtrees(stored)[1:]:
                if rng.random() < 0.2:
                    node.label = rng.choice(GOLDEN_LABELS)
                if node.children and rng.random() < 0.3:
                    del node.children[rng.randrange(len(node.children))]
        stored.label, stored.attributes = anchor.label, dict(anchor.attributes)
        yield seed, stored, page, GOLDEN_LABELERS[seed % len(GOLDEN_LABELERS)]


class TestKernels:
    def test_weighted_kernel_matches_recursion(self, rng):
        for _ in range(40):
            page = random_tree(rng, max_depth=4, max_branch=3, with_attrs=True)
            stored = random_node(rng, max_depth=3, max_branch=3, with_attrs=True)
            scored = kernels.score_against_page(stored, page, DEFAULT_LABELER, "weighted")
            for path, score in scored:
                node = resolve(page, path)
                assert score == weighted_tree_matching(stored, node)

    def test_simple_kernel_matches_recursion(self, rng):
        for _ in range(40):
            page = random_tree(rng, max_depth=4, max_branch=3, with_attrs=True)
            stored = random_node(rng, max_depth=3, max_branch=3, with_attrs=True)
            scored = kernels.score_against_page(stored, page, DEFAULT_LABELER, "simple")
            for path, score in scored:
                node = resolve(page, path)
                assert score == normalized_stm(stored, node)

    def test_scores_equal_recorded_golden_values(self):
        # float.hex scores recorded from the array all-pairs kernels this
        # matcher replaced; paths, order and every bit must agree
        golden = json.loads(GOLDEN_PATH.read_text())
        got = []
        for seed, stored, page, labeler in golden_pairs():
            for algorithm in ("weighted", "simple"):
                scored = kernels.score_against_page(stored, page, labeler, algorithm)
                got.append({
                    "seed": seed,
                    "algorithm": algorithm,
                    "scores": [[list(path), score.hex()] for path, score in scored],
                })
        assert got == golden

    def test_simple_best_matches_equal_oracle(self, rng):
        for _ in range(40):
            page = random_tree(rng, max_depth=3, max_branch=3, labels=("a", "b"))
            stored = random_node(rng, max_depth=2, max_branch=2, labels=("a", "b"))
            stored.label = page.root.label
            ranked = best_matches(stored, page, algorithm="simple")
            assert ranked
            for cand in ranked:
                node = resolve(page, cand.path)
                want = 2 * oracle_stm(stored, node) / (subtree_size(stored) + subtree_size(node))
                assert cand.score == want

    def test_best_matches_scores_through_the_kernels_module(self, monkeypatch):
        # the benchmark's tracer rebinds kernels.score_against_page; a
        # best_matches that bypassed the module attribute would read as
        # zero kernel calls
        calls = []
        real = kernels.score_against_page

        def recorder(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "score_against_page", recorder)
        page = parse_html("<html><body><div><p>x</p></div></body></html>")
        stored = t("<div><p>a</p></div>")
        for algorithm in ("weighted", "simple"):
            assert best_matches(stored, page, algorithm=algorithm)[0].score == 1.0
        assert [args[3] for args in calls] == ["weighted", "simple"]
        assert all(args[0] is stored and args[1] is page for args in calls)


class TestDeepPages:
    @pytest.mark.parametrize("algorithm", ["weighted", "simple"])
    def test_page_nested_1200_deep(self, algorithm):
        depth = 1200
        page = parse_html("<div>" * depth + "<span></span>" + "</div>" * depth)
        stored = t("<div><span></span></div>")
        ranked = best_matches(stored, page, algorithm=algorithm)
        assert len(ranked) == depth
        assert ranked[0].score == 1.0
        assert ranked[0].path == (0,) * depth
        assert resolve(page, ranked[0].path).children[0].label == "span"


def _top_level_modules_after(statement: str) -> set:
    """Top-level names in sys.modules after running `statement` in a fresh
    interpreter that imports from this checkout's src/."""
    code = statement + "; import sys; print(' '.join(sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return {name.partition(".")[0] for name in out.stdout.split()}


class TestDependencies:
    def test_import_loads_only_stdlib(self):
        # the package declares no dependency; anything a bare import loads
        # beyond what the interpreter starts with would be an undeclared one
        loaded = _top_level_modules_after("import wrapmend")
        allowed = _top_level_modules_after("pass") | {"wrapmend"}
        extra = {m for m in loaded - allowed if m not in sys.stdlib_module_names}
        assert extra == set()
