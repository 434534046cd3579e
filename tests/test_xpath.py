from __future__ import annotations

import functools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from operator import itemgetter

from wrapmend import xpath
from wrapmend.dom import DomTree, _walk, enumerate_subtrees, parse_html, resolve
from wrapmend.constraints import CardinalityConstraint, DatatypeConstraint
from wrapmend.xpath import (
    AttrEquals,
    AttrFragment,
    FallbackPlan,
    PlanEntry,
    PlanExhausted,
    Position,
    Step,
    TextEquals,
    XPathError,
    XPathExpr,
    apply_plan,
    detect_anchors,
    evaluate,
    generate_plan,
    parse_xpath,
    relaxation_variants,
)

from conftest import SAFE_LABELS, WORDS, random_node, random_tree, scenario_pages

PAGE_SOURCE = """
<html>
  <body>
    <div id="nav">
      <ul>
        <li>home</li>
        <li>about</li>
      </ul>
    </div>
    <div class="content">
      <div class="product-1234">
        <span class="name">Widget</span>
        <span class="price">12.99</span>
      </div>
      <div class="product-5678">
        <span class="name">Gadget</span>
        <span class="price">3.50</span>
      </div>
      <ul>
        <li>spec one</li>
        <li>spec two</li>
        <li>spec three</li>
      </ul>
    </div>
    <table>
      <tr><td>a</td><td>b</td></tr>
      <tr><td>c</td><td>d</td></tr>
    </table>
  </body>
</html>
"""

PAGE = parse_html(PAGE_SOURCE)


class TestParse:
    def test_absolute_child_steps(self):
        e = parse_xpath("/html/body/div")
        assert e.absolute
        assert [s.axis for s in e.steps] == ["child"] * 3
        assert [s.name for s in e.steps] == ["html", "body", "div"]

    def test_descendant_axis(self):
        e = parse_xpath("//div/span")
        assert e.steps[0].axis == "descendant"
        assert e.steps[1].axis == "child"

    def test_predicates(self):
        e = parse_xpath("/html/body/div[2]/span[@class='price']")
        assert e.steps[2].predicates == (Position(2),)
        assert e.steps[3].predicates == (AttrEquals("class", "price"),)

    def test_fragment_predicate(self):
        e = parse_xpath("//div[matches(@class,'^product-')]")
        assert e.steps[0].predicates == (AttrFragment("class", "^product-"),)

    def test_text_predicate(self):
        e = parse_xpath("//span[text()='Widget']")
        assert e.steps[0].predicates == (TextEquals("Widget"),)

    def test_wildcard(self):
        e = parse_xpath("//*[@id='nav']")
        assert e.steps[0].name == "*"

    def test_relative_forms(self):
        bare = parse_xpath("div/span")
        assert not bare.absolute
        assert bare.steps[0].axis == "child"
        dotted = parse_xpath("./div/span")
        assert dotted == bare
        desc = parse_xpath(".//span")
        assert not desc.absolute
        assert desc.steps[0].axis == "descendant"

    def test_double_quoted_literals(self):
        e = parse_xpath('//span[text()="it\'s"]')
        assert e.steps[0].predicates == (TextEquals("it's"),)

    def test_bad_expressions_rejected(self):
        for bad in ("", "/", "//", "/html[0]", "/html[last()]", "/ht ml", "//div[", "div//"):
            with pytest.raises(XPathError):
                parse_xpath(bad)

    def test_bad_fragment_regex_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("//div[matches(@class,'[')]")
        with pytest.raises(XPathError, match="bad pattern"):
            AttrFragment("class", "[")

    def test_round_trip(self):
        samples = [
            "/html/body/div[2]/span[@class='price']",
            "//*[@id='nav']/ul/li[2]",
            "//div[matches(@class,'^product-')]/span",
            "//span[text()='Widget']",
            "div/span[1]",
            ".//li[@class='x'][3]",
        ]
        for s in samples:
            e = parse_xpath(s)
            assert parse_xpath(e.to_string()) == e
            assert e.to_string() == s

    def test_quote_choice_in_serialization(self):
        e = XPathExpr(steps=(Step("descendant", "span", (TextEquals("it's"),)),))
        assert e.to_string() == '//span[text()="it\'s"]'
        both = XPathExpr(steps=(Step("descendant", "span", (TextEquals("a'b\"c"),)),))
        with pytest.raises(XPathError):
            both.to_string()


class TestEvaluate:
    def test_absolute_path(self):
        assert evaluate(parse_xpath("/html/body/table"), PAGE) == [(0, 2)]

    def test_root_step(self):
        assert evaluate(parse_xpath("/html"), PAGE) == [()]

    def test_a_context_path_given_as_a_list(self):
        expr = parse_xpath(".//span[@class='price']")
        want = [(0, 1, 1, 1)]
        assert evaluate(expr, PAGE, [0, 1, 1]) == evaluate(expr, PAGE, (0, 1, 1)) == want
        plan = FallbackPlan(best=expr, best_tag="attribute")
        node = resolve(PAGE, (0, 1, 1))
        for context in ([0, 1, 1], (0, 1, 1)):
            matches, _ = apply_plan(plan, PAGE, context_path=context, context_node=node)
            assert [p for p, _ in matches] == want

    def test_position_picks_sibling(self):
        got = evaluate(parse_xpath("/html/body/div[2]"), PAGE)
        assert got == [(0, 1)]
        assert resolve(PAGE, got[0]).attributes.get("class") == "content"

    def test_position_is_per_parent_for_descendant_axis(self):
        # first li of EACH list, exactly like child::li[1] under every parent
        got = evaluate(parse_xpath("//li[1]"), PAGE)
        assert got == [(0, 0, 0, 0), (0, 1, 2, 0)]

    def test_id_lookup(self):
        assert evaluate(parse_xpath("//*[@id='nav']"), PAGE) == [(0, 0)]

    def test_attribute_equality(self):
        got = evaluate(parse_xpath("//span[@class='price']"), PAGE)
        assert [resolve(PAGE, p).text for p in got] == ["12.99", "3.50"]

    def test_fragment_matching(self):
        got = evaluate(parse_xpath("//div[matches(@class,'^product-')]"), PAGE)
        assert len(got) == 2

    def test_text_equality(self):
        got = evaluate(parse_xpath("//span[text()='Widget']"), PAGE)
        assert got == [(0, 1, 0, 0)]

    def test_predicates_apply_in_sequence(self):
        got = evaluate(parse_xpath("//span[@class='name'][2]"), PAGE)
        # each product div has one name span, so no group has a second one
        assert got == []
        got = evaluate(parse_xpath("//td[2]"), PAGE)
        assert [resolve(PAGE, p).text for p in got] == ["b", "d"]

    def test_document_order_no_duplicates(self):
        got = evaluate(parse_xpath("//div//span"), PAGE)
        assert got == sorted(got)
        assert len(got) == len(set(got))
        assert len(got) == 4

    def test_relative_child(self):
        content = (0, 1)
        got = evaluate(parse_xpath("div/span[@class='price']"), PAGE, context_path=content)
        assert [resolve(PAGE, p).text for p in got] == ["12.99", "3.50"]

    def test_relative_descendant_excludes_context(self):
        got = evaluate(parse_xpath(".//div"), PAGE, context_path=(0, 1))
        assert (0, 1) not in got
        assert got == [(0, 1, 0), (0, 1, 1)]

    def test_missing_matches_empty(self):
        assert evaluate(parse_xpath("//article"), PAGE) == []
        assert evaluate(parse_xpath("/html/body/div[9]"), PAGE) == []



def reference_evaluate(expr, tree, context_path=None):
    """The per-parent-group semantics spelled out over paths: every parent
    below a context (the context included) offers its children as one
    group; the name test and then each predicate in turn narrow a group,
    so a position counts what the predicates before it left.  The
    document is the parent of the root."""
    nodes = dict(enumerate_subtrees(tree))

    def group(parent):
        if parent is None:
            return [()]
        return [parent + (i,) for i in range(len(nodes[parent].children))]

    def parents(ctx, axis):
        if axis == "child":
            return [ctx]
        below = [p for p in nodes if ctx is None or p[: len(ctx)] == ctx]
        return ([None] if ctx is None else []) + below

    def holds(pred, node):
        if isinstance(pred, AttrEquals):
            return node.attributes.get(pred.name) == pred.value
        if isinstance(pred, AttrFragment):
            value = node.attributes.get(pred.name)
            return value is not None and re.search(pred.pattern, value) is not None
        return node.text == pred.value

    current = [None] if expr.absolute else [tuple(context_path or ())]
    for step in expr.steps:
        found = set()
        for ctx in current:
            for parent in parents(ctx, step.axis):
                chosen = [p for p in group(parent) if step.name in ("*", nodes[p].label)]
                for pred in step.predicates:
                    if isinstance(pred, Position):
                        chosen = chosen[pred.index - 1 : pred.index]
                    else:
                        chosen = [p for p in chosen if holds(pred, nodes[p])]
                found.update(chosen)
        current = sorted(found)
    return current


@functools.cache
def _corpus_trees():
    return tuple(parse_html(html) for html in scenario_pages(cases=1))


@st.composite
def tree_and_expr(draw):
    """A random tree or a corpus scenario page, a context, and an
    expression from it.  Each step heads for a node on the way down to a
    drawn target, so most results are non-empty; its name may be *, and
    its predicates, in random order, are drawn from that node (a class
    value, a fragment of it, its text, a position) or from elsewhere."""
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        tree = DomTree(root=random_node(random.Random(seed), with_text=True, with_attrs=True))
    else:
        tree = draw(st.sampled_from(_corpus_trees()))
    nodes = dict(enumerate_subtrees(tree))
    target = draw(st.sampled_from(sorted(nodes)))
    absolute = draw(st.booleans())
    if absolute:
        context, below = None, [target[:k] for k in range(len(target) + 1)]
    else:
        cut = draw(st.integers(0, max(0, len(target) - 1)))
        context, below = target[:cut], [target[:k] for k in range(cut + 1, len(target) + 1)]
    if not below:  # the target is the context: any step will do
        below = [target + (0,)]
    stops = sorted(draw(st.sets(st.sampled_from(below), min_size=1, max_size=3)))
    stray = [n for n in nodes.values() if n.attributes.get("class")] or [tree.root]

    def predicate(node):
        kind = draw(st.sampled_from(("position", "equals", "fragment", "text")))
        if kind == "position":
            return Position(draw(st.integers(1, 3)))
        if kind == "text":
            return TextEquals(node.text if draw(st.booleans()) else draw(st.sampled_from(WORDS)))
        if not node.attributes.get("class") or not draw(st.booleans()):
            node = draw(st.sampled_from(stray))
        value = node.attributes.get("class", "alpha")
        if kind == "equals":
            return AttrEquals("class", value)
        part = re.escape(value[: draw(st.integers(1, len(value)))])
        return AttrFragment("class", draw(st.sampled_from(("^%s", "%s$", "%s"))) % part)

    steps = []
    above = context
    for stop in stops:
        node = nodes.get(stop, tree.root)
        one_level = above is not None and len(stop) == len(above) + 1 or stop == ()
        axis = draw(st.sampled_from(("child", "descendant"))) if one_level else "descendant"
        name = draw(st.sampled_from(("*", node.label, draw(st.sampled_from(SAFE_LABELS)))))
        preds = tuple(predicate(node) for _ in range(draw(st.integers(0, 2))))
        steps.append(Step(axis=axis, name=name, predicates=preds))
        above = stop
    return tree, XPathExpr(steps=tuple(steps), absolute=absolute), context


class TestEvaluateDifferential:
    """evaluate against a brute-force reference of the per-parent-group
    semantics, over random trees, corpus pages and random expressions."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(tree_and_expr())
    def test_equals_reference(self, case):
        tree, expr, context = case
        assert evaluate(expr, tree, context) == reference_evaluate(expr, tree, context)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(tree_and_expr())
    def test_apply_plan_hands_back_the_nodes_of_its_paths(self, case):
        tree, expr, context = case
        plan = FallbackPlan(
            best=expr,
            best_tag="attribute",
            fallbacks=(PlanEntry(expr, "index_relaxation", 61),),
        )
        try:
            matches, tag = apply_plan(plan, tree, context_path=context)
        except PlanExhausted:
            assert all(not evaluate(e, tree, context) for _, e in plan.attempts)
            return
        answering = dict(plan.attempts[::-1])[tag] if tag != "attribute" else expr
        assert [p for p, _ in matches] == evaluate(answering, tree, context)
        for path, node in matches:
            assert node is resolve(tree, path)


    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(tree_and_expr())
    def test_a_given_context_node_answers_as_its_path(self, case):
        tree, expr, context = case
        plan = FallbackPlan(best=expr, best_tag="attribute")
        node = resolve(tree, context or ())
        try:
            want = apply_plan(plan, tree, context_path=context)
        except PlanExhausted:
            with pytest.raises(PlanExhausted):
                apply_plan(plan, tree, context_path=context, context_node=node)
            return
        assert apply_plan(plan, tree, context_path=context, context_node=node) == want


def reference_step(step, contexts):
    """_step as the name test and then _filtered over each group: every
    parent the step reaches, once, in document order."""
    parents = {}
    for path, node in contexts:
        reached = _walk(node, path) if step.axis == "descendant" else [(path, node)]
        for p, n in reached:
            parents[p] = n
    out = []
    for p, n in parents.items():
        kept = [i for i, c in enumerate(n.children) if step.name in ("*", c.label)]
        kept = xpath._filtered(step.predicates, n.children, kept)
        out += [(p + (i,), n.children[i]) for i in kept]
    return sorted(out, key=itemgetter(0))


@st.composite
def step_and_contexts(draw):
    """A random tree, up to three of its nodes as contexts in document
    order, and a step of either axis, named or *, with 0-3 predicates of
    every kind.  The step heads for a drawn target: one context holds
    it, and the name and most predicate values are taken from it or its
    siblings."""
    labels = draw(st.sampled_from((SAFE_LABELS, SAFE_LABELS[:2])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = random_tree(rng, max_depth=3, max_branch=5, labels=labels,
                       with_text=True, with_attrs=True)
    nodes = enumerate_subtrees(tree)
    target_path, target = draw(st.sampled_from(nodes[1:] or nodes))
    axis = draw(st.sampled_from(("child", "descendant")))
    if axis == "child":
        holder = target_path[:-1]
    else:
        holder = target_path[: draw(st.integers(0, max(0, len(target_path) - 1)))]
    picked = dict(draw(st.lists(st.sampled_from(nodes), max_size=2)))
    picked[holder] = resolve(tree, holder)
    siblings = resolve(tree, target_path[:-1]).children or [target]
    anywhere = [n for _, n in nodes]

    def predicate():
        kind = draw(st.sampled_from(("position", "equals", "fragment", "text")))
        if kind == "position":
            return Position(draw(st.integers(1, 3)))
        node = draw(st.sampled_from((target, target, siblings, anywhere)))
        if node is not target:
            node = draw(st.sampled_from(node))
        if kind == "text":
            return TextEquals(node.text)
        value = node.attributes.get("class", draw(st.sampled_from(WORDS)))
        if kind == "equals":
            return AttrEquals("class", value)
        part = re.escape(value[: draw(st.integers(1, max(1, len(value))))])
        return AttrFragment("class", draw(st.sampled_from(("^%s", "%s$", "%s"))) % part)

    step = Step(
        axis=axis,
        name=draw(st.sampled_from(("*", target.label, draw(st.sampled_from(SAFE_LABELS))))),
        predicates=tuple(predicate() for _ in range(draw(st.integers(0, 3)))),
    )
    return step, sorted(picked.items())


class TestStepDifferential:
    """_step decides the predicates before a step's first Position in its
    scan; the reference narrows each whole group with _filtered."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(step_and_contexts())
    def test_equals_reference(self, case):
        step, contexts = case
        got = xpath._step(step, contexts)
        want = reference_step(step, contexts)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))

    def test_groups_are_filtered_only_for_a_position(self, monkeypatch):
        calls = []
        filtered = xpath._filtered
        monkeypatch.setattr(
            xpath, "_filtered", lambda *a: calls.append(a[0]) or filtered(*a)
        )
        price = parse_xpath(".//span[@class='price'][text()='3.50']")
        assert evaluate(price, PAGE, ()) == [(0, 1, 1, 1)]
        assert calls == []
        second = parse_xpath(".//div[matches(@class,'^product')][2]/span[@class='name']")
        assert evaluate(second, PAGE, ()) == [(0, 1, 1, 0)]
        assert calls == [(Position(2),)]


class TestAnchors:
    def test_kinds_detected(self):
        anchors = detect_anchors(PAGE)
        kinds = {a.kind for a in anchors}
        assert kinds == {"unique_id", "outermost_table"}

    def test_unique_id_anchor(self):
        anchors = [a for a in detect_anchors(PAGE) if a.kind == "unique_id"]
        assert [a.path for a in anchors] == [(0, 0)]

    def test_duplicate_ids_are_not_anchors(self):
        page = parse_html(
            '<html><body><div id="x">a</div><div id="x">b</div></body></html>'
        )
        assert [a for a in detect_anchors(page) if a.kind == "unique_id"] == []

    def test_outermost_table_only(self):
        nested = parse_html(
            "<html><body><table><tr><td><table><tr><td>x</td></tr></table>"
            "</td></tr></table></body></html>"
        )
        anchors = [a for a in detect_anchors(nested) if a.kind == "outermost_table"]
        assert [a.path for a in anchors] == [(0, 0)]

    def test_anchors_equal_their_definition(self):
        rng = random.Random(3)
        trees = [parse_html(src) for src in scenario_pages()]
        trees += [
            DomTree(root=random_node(rng, max_depth=4, with_text=rng.random() < 0.8))
            for _ in range(60)
        ]
        trees.append(PAGE)
        for tree in trees:
            nodes = enumerate_subtrees(tree)
            ids = [n.attributes.get("id") for _, n in nodes]
            want = [
                (path, "unique_id")
                for path, node in nodes
                if node.attributes.get("id") and ids.count(node.attributes["id"]) == 1
            ]
            want += [
                (path, "outermost_table")
                for path, node in nodes
                if node.label == "table"
                and all(resolve(tree, path[:k]).label != "table" for k in range(len(path)))
            ]
            got = [(a.path, a.kind) for a in detect_anchors(tree)]
            assert got == sorted(want)

    def test_deep_chain_is_fast(self):
        depth = 2000
        page = parse_html('<div id="a">' + "<div>t" * depth + "</div>" * (depth + 1))
        start = time.perf_counter()
        anchors = detect_anchors(page)
        elapsed = time.perf_counter() - start
        assert [(a.path, a.kind) for a in anchors] == [((0,), "unique_id")]
        assert elapsed < 1.0, elapsed

    def test_deep_chain_keeps_little_memory(self):
        depth = 3000
        page = parse_html("<div>t" * depth + "</div>" * depth)
        tracemalloc.start()
        try:
            detect_anchors(page)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak


class TestGeneratePlan:
    def test_unique_id_wins(self):
        plan = generate_plan(PAGE, (0, 0))
        assert plan.best_tag == "id"
        assert plan.best.to_string() == "//*[@id='nav']"
        assert evaluate(plan.best, PAGE) == [(0, 0)]

    def test_unique_attribute(self):
        plan = generate_plan(PAGE, (0, 1, 0))
        assert plan.best_tag == "attribute"
        assert plan.best.to_string() == "//div[@class='product-1234']"

    def test_fragment_needs_a_unique_stable_part(self):
        # both products share the prefix, so no fragment can single one out
        plan = generate_plan(PAGE, (0, 1, 0))
        assert not [e for e in plan.fallbacks if e.tag == "fragment"]
        # with a single product the stable prefix is unique and is kept as
        # the robustness fallback behind the exact-value locator
        single = parse_html(
            '<html><body><div class="product-1234"><span>x</span></div>'
            "<p>other</p></body></html>"
        )
        plan = generate_plan(single, (0, 0))
        frags = [e for e in plan.fallbacks if e.tag == "fragment"]
        assert [e.expr.to_string() for e in frags] == [
            "//div[matches(@class,'^product\\-')]"
        ]

    def test_structural_path_when_no_attributes(self):
        page = parse_html(
            "<html><body><main><article><h1>t</h1></article></main></body></html>"
        )
        plan = generate_plan(page, (0, 0, 0, 0))
        assert plan.best_tag == "structural"
        assert plan.best.to_string() == "/html/body/main/article/h1"

    def test_positional_always_present_and_unique(self):
        plan = generate_plan(PAGE, (0, 1, 1, 1))
        tags = [plan.best_tag] + [e.tag for e in plan.fallbacks]
        assert "positional" in tags
        positional = (
            plan.best
            if plan.best_tag == "positional"
            else next(e.expr for e in plan.fallbacks if e.tag == "positional")
        )
        assert evaluate(positional, PAGE) == [(0, 1, 1, 1)]

    def test_priorities_strictly_increase(self):
        plan = generate_plan(PAGE, (0, 1, 0, 1))
        prios = [e.priority for e in plan.fallbacks]
        assert prios == sorted(prios)
        assert len(prios) == len(set(prios))

    def test_anchor_entry_relative_to_id_ancestor(self):
        plan = generate_plan(PAGE, (0, 0, 0, 1))
        exprs = [e.expr.to_string() for e in plan.fallbacks if e.tag == "anchor"]
        if plan.best_tag == "anchor":
            exprs.insert(0, plan.best.to_string())
        assert "//*[@id='nav']/ul/li[2]" in exprs

    def test_table_anchor_for_cell(self):
        plan = generate_plan(PAGE, (0, 2, 1, 0))
        exprs = [e.expr.to_string() for e in plan.fallbacks if e.tag == "anchor"]
        if plan.best_tag == "anchor":
            exprs.insert(0, plan.best.to_string())
        assert "//table/tr[2]/td[1]" in exprs

    def test_relative_plan(self):
        record = (0, 1, 0)
        plan = generate_plan(PAGE, (0, 1, 0, 1), context_path=record)
        assert not plan.best.absolute
        assert evaluate(plan.best, PAGE, context_path=record) == [(0, 1, 0, 1)]
        plan2 = FallbackPlan.from_dict(plan.to_dict())
        assert plan2 == plan

    def test_cohort_plan_matches_whole_set(self):
        cohort = [(0, 1, 0), (0, 1, 1)]  # both product divs
        plan = generate_plan(PAGE, (0, 1, 0), cohort=cohort)
        assert evaluate(plan.best, PAGE) == cohort
        # per-node heuristics drop out: nothing in the plan narrows to one
        for entry in plan.fallbacks:
            assert entry.tag != "id"
            assert evaluate(entry.expr, PAGE) == cohort

    def test_cohort_positional_uses_index_free_final_step(self):
        cohort = [(0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2)]  # the spec list items
        plan = generate_plan(PAGE, (0, 1, 2, 0), cohort=cohort)
        tags = [plan.best_tag] + [e.tag for e in plan.fallbacks]
        assert "positional" in tags
        positional = (
            plan.best
            if plan.best_tag == "positional"
            else next(e.expr for e in plan.fallbacks if e.tag == "positional")
        )
        assert positional.to_string() == "/html/body/div[2]/ul/li"

    def test_target_outside_context_rejected(self):
        with pytest.raises(XPathError):
            generate_plan(PAGE, (0, 0, 0), context_path=(0, 1))

    def test_best_resolves_uniquely_for_every_element(self):
        for path, _ in enumerate_subtrees(PAGE):
            plan = generate_plan(PAGE, path)
            assert evaluate(plan.best, PAGE) == [path], path

    def test_plan_serialization_round_trip(self):
        plan = generate_plan(PAGE, (0, 1, 0, 1))
        back = FallbackPlan.from_dict(plan.to_dict())
        assert back == plan


class TestRelaxation:
    def test_variants_drop_rightmost_first(self):
        e = parse_xpath("/html/body[1]/div[2]/ul[1]/li[3]")
        variants = relaxation_variants(e)
        assert [v.to_string() for v in variants] == [
            "/html/body[1]/div[2]/ul[1]/li",
            "/html/body[1]/div[2]/ul/li",
            "/html/body[1]/div/ul/li",
            "/html/body/div/ul/li",
        ]

    def test_monotone_widening(self):
        e = parse_xpath("/html/body/div[2]/ul/li[3]")
        prev = set(evaluate(e, PAGE))
        for v in relaxation_variants(e):
            cur = set(evaluate(v, PAGE))
            assert prev <= cur
            prev = cur

    def test_no_positions_no_variants(self):
        assert relaxation_variants(parse_xpath("//div/span")) == []


class TestApplyPlan:
    def test_best_used_when_it_satisfies(self):
        plan = generate_plan(PAGE, (0, 0))
        matches, tag = apply_plan(plan, PAGE, CardinalityConstraint(1, 1))
        assert matches == [((0, 0), resolve(PAGE, (0, 0)))]
        assert tag == "id"

    def test_fragment_rescues_churned_class(self):
        gen = parse_html(
            '<html><body><div class="product-1234"><span>x</span></div>'
            "<p>other</p></body></html>"
        )
        plan = generate_plan(gen, (0, 0))
        assert plan.best_tag == "attribute"
        churned = parse_html(
            '<html><body><div class="product-9876"><span>x</span></div>'
            "<p>other</p></body></html>"
        )
        matches, tag = apply_plan(plan, churned, CardinalityConstraint(1, 1))
        assert [p for p, _ in matches] == [(0, 0)]
        assert tag == "fragment"

    def test_positional_rescues_renamed_class(self):
        plan = generate_plan(PAGE, (0, 1, 0))
        mutated = parse_html(
            PAGE_SOURCE.replace('class="product-1234"', 'class="totally-new"')
        )
        matches, tag = apply_plan(plan, mutated, CardinalityConstraint(1, 1))
        assert [p for p, _ in matches] == [(0, 1, 0)]
        assert tag == "positional"

    def test_constraints_reject_wrong_nodes_until_anchor_entry(self):
        gen = parse_html(
            '<html><body><div id="box"><span>12.99</span></div>'
            "<p>words</p></body></html>"
        )
        target = (0, 0, 0)
        plan = generate_plan(gen, target)
        mutated = parse_html(
            "<html><body><div><span>oops</span></div>"
            '<div id="box"><span>3.99</span></div><p>words</p></body></html>'
        )
        constraints = [CardinalityConstraint(1, 1), DatatypeConstraint(datatype="decimal")]
        matches, tag = apply_plan(plan, mutated, constraints)
        assert [resolve(mutated, p).text for p, _ in matches] == ["3.99"]
        assert tag == "anchor"

    def test_relaxation_rescues_deleted_sibling(self):
        gen = parse_html(
            "<html><body><div><ul><li>a</li><li>goal</li></ul></div></body></html>"
        )
        plan = generate_plan(gen, (0, 0, 0, 1))
        assert plan.best_tag == "positional"
        mutated = parse_html(
            "<html><body><div><ul><li>goal</li></ul></div></body></html>"
        )
        matches, tag = apply_plan(plan, mutated, CardinalityConstraint(1, 1))
        assert tag == "index_relaxation"
        assert [resolve(mutated, p).text for p, _ in matches] == ["goal"]

    def test_single_constraint_accepted_without_list(self):
        plan = generate_plan(PAGE, (0, 2))
        matches, _ = apply_plan(plan, PAGE, CardinalityConstraint(1, 1))
        assert [p for p, _ in matches] == [(0, 2)]

    def test_no_constraints_requires_nonempty(self):
        plan = generate_plan(PAGE, (0, 2))
        gone = parse_html("<html><body><p>nothing here</p></body></html>")
        with pytest.raises(PlanExhausted) as err:
            apply_plan(plan, gone)
        assert err.value.tried

    def test_fallbacks_are_tried_in_priority_order(self):
        # the file lists positional (60) before id (10): id answers first
        page = parse_html('<html><body><p>first</p><p id="goal">second</p></body></html>')
        plan = FallbackPlan.from_dict(
            {
                "xpath_best": {"expr": "//p[@class='gone']", "tag": "attribute"},
                "xpath_fallbacks": [
                    {"expr": "/html/body/p[1]", "tag": "positional", "priority": 60},
                    {"expr": "/html/body/p", "tag": "structural", "priority": 60},
                    {"expr": "//*[@id='goal']", "tag": "id", "priority": 10},
                ],
            }
        )
        assert [t for t, _ in plan.attempts] == ["attribute", "id", "positional", "structural"]
        matches, tag = apply_plan(plan, page, CardinalityConstraint(1, 1))
        assert tag == "id"
        assert [node.text for _, node in matches] == ["second"]

    def test_exhausted_reports_attempts(self):
        plan = generate_plan(PAGE, (0, 1, 1))
        empty = parse_html("<html><body></body></html>")
        with pytest.raises(PlanExhausted) as err:
            apply_plan(plan, empty, CardinalityConstraint(1, None))
        tags = [t for t, _ in err.value.tried]
        assert tags[0] == plan.best_tag
