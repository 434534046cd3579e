"""Mutation harness: determinism, per-operation semantics, truth validity."""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import wrapmend.mutate as mutate_module
from conftest import deep_page, random_tree
from wrapmend.corpus import DEFAULT_RATE, SCENARIOS, generate_page
from wrapmend.dom import parse_html, resolve, serialize
from wrapmend.mutate import (
    OPERATIONS,
    MutationSpec,
    mutate_tree,
    truth_to_jsonable,
)

PAGE_HTML = (
    '<html><body><div id="main">'
    '<div class="record"><span class="name">A</span><span class="price">1.50</span></div>'
    '<div class="record"><span class="name">B</span><span class="price">2.50</span></div>'
    "</div></body></html>"
)


def page():
    return parse_html(PAGE_HTML)


def only(op, seed=1, rate=1.0):
    return MutationSpec(operations=(op,), seed=seed, rate=rate)


class TestSpec:
    def test_rejects_unknown_operation(self):
        with pytest.raises(ValueError):
            MutationSpec(operations=("explode",))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            MutationSpec(rate=1.5)


class TestDeterminism:
    def test_same_seed_same_output(self):
        spec = MutationSpec(seed=42, rate=0.5)
        m1, t1 = mutate_tree(page(), spec)
        m2, t2 = mutate_tree(page(), spec)
        assert serialize(m1) == serialize(m2)
        assert t1 == t2

    def test_different_seed_differs(self):
        m1, _ = mutate_tree(page(), MutationSpec(seed=1, rate=0.5))
        m2, _ = mutate_tree(page(), MutationSpec(seed=2, rate=0.5))
        assert serialize(m1) != serialize(m2)

    def test_rate_zero_is_identity(self):
        tree = page()
        mutated, truth = mutate_tree(tree, MutationSpec(seed=5, rate=0.0))
        assert serialize(mutated) == serialize(tree)
        assert all(new == orig for orig, new in truth.items())
        assert set(truth) == {p for p, _ in _all_paths(tree)}


def _all_paths(tree):
    out = []

    def walk(node, path):
        out.append((path, node))
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(tree.root, ())
    return out


class TestOperations:
    def test_rename_attribute_keeps_value(self):
        mutated, truth = mutate_tree(page(), only("rename_attribute"))
        main = resolve(mutated, truth[(0, 0)])
        assert main.attributes == {"id-old": "main"}

    def test_drop_attribute(self):
        mutated, truth = mutate_tree(page(), only("drop_attribute"))
        assert resolve(mutated, truth[(0, 0)]).attributes == {}

    def test_wrapper_goes_one_level_deeper(self):
        tree = parse_html("<html><body><p>x</p></body></html>")
        mutated, truth = mutate_tree(tree, only("insert_wrapper_element"))
        # body and p each get wrapped; p sinks one level per wrapped ancestor
        assert truth[(0,)] == (0, 0)
        assert truth[(0, 0)] == (0, 0, 0, 0)
        wrapper = resolve(mutated, (0,))
        assert wrapper.label == "span" and wrapper.attributes["class"] == "wrap"
        assert resolve(mutated, truth[(0, 0)]).text == "x"

    def test_remove_level_splices_children_up(self):
        mutated, truth = mutate_tree(page(), only("remove_level", seed=3, rate=0.2))
        removed = [orig for orig, new in truth.items() if new is None]
        assert removed, "expected at least one removed level at this seed"
        for orig, new in truth.items():
            if new is not None:
                assert resolve(mutated, new).label == "span" or True

    def test_reorder_siblings_permutes(self):
        mutated, truth = mutate_tree(page(), only("reorder_siblings"))
        # records keep their subtrees, just possibly in another order
        names = sorted(
            resolve(mutated, truth[p]).text for p in ((0, 0, 0, 0), (0, 0, 1, 0))
        )
        assert names == ["A", "B"]

    def test_duplicate_record_adds_unmapped_sibling(self):
        tree = parse_html("<html><body><div class='r'><b>x</b></div></body></html>")
        mutated, truth = mutate_tree(tree, only("duplicate_record", rate=0.34, seed=8))
        originals = {new for new in truth.values() if new is not None}
        total = len(_all_paths_of(mutated))
        assert total > len(truth), "copies must exist beyond mapped originals"
        assert len(originals) == len([v for v in truth.values() if v is not None])

    def test_change_class_value_appends_suffix(self):
        mutated, truth = mutate_tree(page(), only("change_class_value"))
        rec = resolve(mutated, truth[(0, 0, 0)])
        assert rec.attributes["class"] == "record-v2"

    def test_delete_region_maps_subtree_to_none(self):
        mutated, truth = mutate_tree(page(), only("delete_region", seed=2, rate=0.3))
        gone = [orig for orig, new in truth.items() if new is None]
        assert gone
        for orig in gone:
            assert all(new is None for o, new in truth.items() if o[: len(orig)] == orig)

    def test_root_never_deleted(self):
        for seed in range(10):
            _, truth = mutate_tree(page(), only("delete_region", seed=seed, rate=1.0))
            assert truth[()] == ()
            assert truth[(0,)] == (0,)  # body is depth 1, protected


def _all_paths_of(tree):
    return _all_paths(tree)


EQUAL_SIBLINGS_HTML = "<html><body><div><i>x</i><i>x</i><i>x</i></div></body></html>"
# the three <i> are equal as DomNodes; the operation must land on the one
# the rng chose, the last, and not on the first equal sibling
EQUAL_SIBLINGS_TRUTH = {
    "delete_region": {(0, 0, 0): (0, 0, 0), (0, 0, 1): (0, 0, 1), (0, 0, 2): None},
    "insert_wrapper_element": {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (0, 0, 1),
        (0, 0, 2): (0, 0, 2, 0),
    },
    "duplicate_record": {(0, 0, 0): (0, 0, 0), (0, 0, 1): (0, 0, 1), (0, 0, 2): (0, 0, 2)},
}


@pytest.mark.parametrize("op", sorted(EQUAL_SIBLINGS_TRUTH))
def test_operations_find_their_node_among_equal_siblings(op):
    tree = parse_html(EQUAL_SIBLINGS_HTML)
    _, truth = mutate_tree(tree, only(op, seed=3, rate=0.3))
    expected = {(): (), (0,): (0,), (0, 0): (0, 0)}
    expected.update(EQUAL_SIBLINGS_TRUTH[op])
    assert truth == expected


class TestDeepPage:
    DEPTH = 1200

    def test_mutates_a_chain_1200_deep(self):
        tree = parse_html(deep_page(self.DEPTH))
        before = serialize(tree)
        mutated, truth = mutate_tree(tree, MutationSpec(seed=1, rate=0.2))
        assert serialize(tree) == before  # the input is not edited
        assert len(truth) == self.DEPTH + 2
        assert any(new != orig for orig, new in truth.items())
        assert parse_html(serialize(mutated)) == mutated
        for orig, new in truth.items():
            if new is not None:
                assert resolve(mutated, new).label == resolve(tree, orig).label

    def test_work_grows_linearly_with_depth(self):
        # line events inside this module, a count that does not depend on
        # the host's speed: twice the depth must cost about twice the lines
        def lines(depth):
            tree = parse_html(deep_page(depth))
            count = 0

            def local(frame, event, arg):
                nonlocal count
                if event == "line":
                    count += 1
                return local

            def start(frame, event, arg):
                return local if frame.f_code.co_filename == mutate_module.__file__ else None

            sys.settrace(start)
            try:
                mutate_tree(tree, MutationSpec(seed=1, rate=1.0))
            finally:
                sys.settrace(None)
            return count

        assert lines(1200) / lines(600) < 2.5


class TestTruthValidity:
    def test_reparse_fixed_point_and_paths_resolve(self, rng):
        for k in range(25):
            tree = random_tree(rng, max_depth=4, max_branch=3, with_attrs=True, with_text=True)
            tree.root.label = "html"  # reparse keeps a single top-level html as root
            tree.root.attributes.clear()
            spec = MutationSpec(seed=k, rate=0.3)
            mutated, truth = mutate_tree(tree, spec)
            reparsed = parse_html(serialize(mutated))
            assert reparsed == mutated
            originals = dict(_all_paths(tree))
            for orig, new in truth.items():
                if new is not None:
                    assert resolve(reparsed, new).label == originals[orig].label

    def test_truth_covers_every_original_node(self):
        tree = page()
        _, truth = mutate_tree(tree, MutationSpec(seed=9, rate=1.0))
        assert set(truth) == {p for p, _ in _all_paths(tree)}


GOLDEN_PATH = Path(__file__).with_name("golden_mutations.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_mutations():
    """sha256 of the mutated page and of its truth map, per scenario and
    mutation seed, on one corpus listing at the corpus rate."""
    tree = parse_html(generate_page(random.Random(0)))
    out = {}
    for scenario, operations in SCENARIOS:
        for seed in range(5):
            spec = MutationSpec(operations=operations, seed=seed, rate=DEFAULT_RATE)
            mutated, truth = mutate_tree(tree, spec)
            out["%s/%d" % (scenario, seed)] = {
                "page": _sha256(serialize(mutated)),
                "truth": _sha256(json.dumps(truth_to_jsonable(truth), sort_keys=True)),
            }
    return out


class TestGolden:
    def test_mutations_equal_recorded_digests(self):
        # any change in the order of the rng draws, or in the nodes they
        # land on, changes these digests
        assert golden_mutations() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    # regenerate the recorded digests: PYTHONPATH=src python3 tests/test_mutate.py
    GOLDEN_PATH.write_text(json.dumps(golden_mutations(), indent=1, sort_keys=True) + "\n")
