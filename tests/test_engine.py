"""Execution, threshold search, adaptation and the trigger cascade."""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wrapmend import engine
from wrapmend.constraints import CardinalityConstraint, DatatypeConstraint
from wrapmend.corpus import SCENARIOS, author_wrapper, generate_page
from wrapmend.dom import (
    Containment,
    DomNode,
    DomTree,
    enumerate_subtrees,
    inside,
    detach_subtree,
    parse_html,
    resolve,
    serialize,
)
from wrapmend.engine import (
    AdaptationFailed,
    ExecutionContext,
    Unsatisfiable,
    adapt_rule,
    execute_wrapper,
    threshold_search,
)
from wrapmend.matching import Labeler, best_matches
from wrapmend.model import AdaptationConfig, Rule, Wrapper, capture_example
from wrapmend.mutate import MutationSpec, mutate_tree
from wrapmend.repo import WrapperStore
from wrapmend.template import TreeTemplate, generalize, template_from_tree
from wrapmend.xpath import FallbackPlan, PlanEntry, parse_xpath

from conftest import random_node

ORIGINAL_HTML = (
    '<html><body><div id="main">'
    '<div class="record"><span class="name">Alpha</span><span class="price">10.00</span></div>'
    '<div class="record"><span class="name">Beta</span><span class="price">20.00</span></div>'
    "</div></body></html>"
)

# the record list moved one level down and lost its class name
WRAPPED_HTML = (
    '<html><body><div id="main"><div class="wrap">'
    '<div class="item"><span class="name">Alpha</span><span class="price">10.00</span></div>'
    '<div class="item"><span class="name">Beta</span><span class="price">20.00</span></div>'
    "</div></div></body></html>"
)

# same, plus the price spans renamed
WRAPPED_COST_HTML = WRAPPED_HTML.replace('class="price"', 'class="cost"')

EMPTY_HTML = "<html><body><p>scheduled maintenance</p></body></html>"

REC0, REC1 = (0, 0, 0), (0, 0, 1)
ITEM0, ITEM1 = (0, 0, 0, 0), (0, 0, 0, 1)


def original_page(source_id="page-0"):
    return parse_html(ORIGINAL_HTML, source_id=source_id)


def build_wrapper(
    record_triggers=(),
    child_triggers=(),
    structural_fallback=False,
    opt_out=False,
    with_template=False,
    update_stored=True,
):
    page = original_page()
    fallbacks = ()
    if structural_fallback:
        fallbacks = (PlanEntry(parse_xpath("/html/body/div/div"), "structural", 40),)
    record_stored = capture_example(page, REC0, captured_at="t0")
    record = Rule(
        name="record",
        plan=FallbackPlan(
            best=parse_xpath("//div[@class='record']"),
            best_tag="attribute",
            fallbacks=fallbacks,
        ),
        constraints=(CardinalityConstraint(1, None),),
        adaptation=AdaptationConfig(
            algorithm="weighted",
            threshold=(0.4, 0.95),
            triggers=record_triggers,
            update_stored=update_stored,
        ),
        stored_example=record_stored,
        template=template_from_tree(record_stored.subtree) if with_template else None,
        children=(
            Rule(
                name="name",
                plan=FallbackPlan(
                    best=parse_xpath("span[@class='name']"), best_tag="attribute"
                ),
                constraints=(
                    CardinalityConstraint(1, 1),
                    DatatypeConstraint("pattern", pattern=r"[A-Za-z]+"),
                ),
                adaptation=AdaptationConfig(
                    algorithm="weighted",
                    threshold=(0.4, 0.95),
                    triggers=child_triggers,
                    cascade_opt_out=opt_out,
                ),
                stored_example=capture_example(
                    page, REC0 + (0,), ancestor_level=1, captured_at="t0"
                ),
            ),
            Rule(
                name="price",
                plan=FallbackPlan(
                    best=parse_xpath("span[@class='price']"), best_tag="attribute"
                ),
                constraints=(
                    CardinalityConstraint(1, 1),
                    DatatypeConstraint("decimal"),
                ),
                adaptation=AdaptationConfig(
                    algorithm="weighted",
                    threshold=(0.4, 0.95),
                    triggers=child_triggers,
                    cascade_opt_out=opt_out,
                ),
                stored_example=capture_example(
                    page, REC0 + (1,), ancestor_level=1, captured_at="t0"
                ),
            ),
        ),
    )
    return Wrapper(name="shop", version=1, root_rules=(record,))


def ctx_for(html, source_id="page-m"):
    return ExecutionContext(pages=(parse_html(html, source_id=source_id),))


class TestThresholdSearch:
    def search(self, scores, constraint, interval):
        """Accept the admitted count when the cardinality constraint takes it."""

        def accept(t):
            n = sum(1 for s in scores if s >= t)
            return n if constraint.admits(n) else None

        return threshold_search(scores, interval, accept)

    def test_picks_highest_admitting_threshold(self):
        t, n = self.search([0.9, 0.4], CardinalityConstraint(1, 1), (0.5, 0.95))
        assert t == 0.9
        assert n == 1

    def test_tied_scores_cannot_be_separated(self):
        with pytest.raises(Unsatisfiable):
            self.search([0.9, 0.9], CardinalityConstraint(1, 1), (0.5, 0.95))

    def test_empty_scores(self):
        with pytest.raises(Unsatisfiable):
            self.search([], CardinalityConstraint(1, 1), (0.5, 0.95))

    def test_close_pair_split(self):
        t, n = self.search([0.92, 0.9], CardinalityConstraint(1, 1), (0.5, 0.95))
        assert 0.9 < t <= 0.92
        assert n == 1

    def test_constant_threshold(self):
        t, n = self.search([0.8, 0.6], CardinalityConstraint(1, 1), (0.7, 0.7))
        assert (t, n) == (0.7, 1)

    def test_at_least_one_takes_widest_passing_prefix(self):
        t, n = self.search([1.0, 1.0, 0.3], CardinalityConstraint(1, None), (0.4, 0.95))
        assert (t, n) == (0.95, 2)

    def test_min_zero_admits_empty(self):
        # accept's 0 is a result, not a rejection
        t, n = self.search([], CardinalityConstraint(0, 1), (0.4, 0.95))
        assert (t, n) == (0.95, 0)

    def test_tries_in_interval_scores_and_both_ends_highest_first(self):
        tried = []
        with pytest.raises(Unsatisfiable):
            threshold_search([0.4, 0.97, 0.9, 0.9], (0.5, 0.95), tried.append)
        assert tried == [0.95, 0.9, 0.5]


class TestExecuteHappyPath:
    def test_clean_page_extracts_everything(self):
        w = build_wrapper()
        ctx = ExecutionContext(pages=(original_page(),))
        results, reports, new_w = execute_wrapper(w, ctx)
        assert reports == []
        assert new_w is None
        (rec,) = results
        assert rec.status == "ok"
        assert [t for _, t in rec.matches] == ["", ""]
        texts = [
            [m.matches[0][1] for m in kids] for kids in rec.children
        ]
        assert texts == [["Alpha", "10.00"], ["Beta", "20.00"]]

    def test_result_dict_shape(self):
        w = build_wrapper()
        results, _, _ = execute_wrapper(w, ExecutionContext(pages=(original_page(),)))
        d = results[0].to_dict()
        assert d["rule"] == "record"
        assert d["locator"] == "attribute"
        assert d["matches"][0]["children"][0]["rule"] == "name"
        assert d["matches"][1]["children"][1]["matches"][0]["text"] == "20.00"

    def test_input_wrapper_untouched(self):
        w = build_wrapper()
        before = w.to_dict()
        execute_wrapper(w, ctx_for(WRAPPED_HTML))
        assert w.to_dict() == before


class TestLocator:
    """Each result names the plan entry that answered its context."""

    @staticmethod
    def contexts(results):
        for r in results:
            yield r
            for kids in r.children:
                yield from TestLocator.contexts(kids)

    def test_intact_corpus_page_answers_by_attribute(self):
        page = parse_html(generate_page(random.Random(3)))
        results, reports, _ = execute_wrapper(
            author_wrapper(page), ExecutionContext(pages=(page,))
        )
        assert reports == []
        found = list(self.contexts(results))
        assert len(found) > 10
        assert {(r.status, r.locator) for r in found} == {("ok", "attribute")}

    def test_fallback_names_itself(self):
        w = build_wrapper(structural_fallback=True)
        renamed = ORIGINAL_HTML.replace('class="record"', 'class="item"')
        (rec,), reports, new_w = execute_wrapper(w, ctx_for(renamed))
        assert reports == [] and new_w is None
        assert (rec.status, rec.locator) == ("ok", "structural")
        assert [p for p, _ in rec.matches] == [REC0, REC1]
        kids = [k for ks in rec.children for k in ks]
        assert {k.locator for k in kids} == {"attribute"}

    def test_repaired_context_names_none(self):
        (rec,), _, _ = execute_wrapper(build_wrapper(), ctx_for(WRAPPED_HTML))
        assert (rec.status, rec.locator) == ("adapted", None)
        assert rec.to_dict()["locator"] is None


class TestDirectAdaptation:
    def test_relocated_records_repaired(self):
        w = build_wrapper()
        ctx = ctx_for(WRAPPED_HTML)
        results, reports, new_w = execute_wrapper(w, ctx)
        (rec,) = results
        assert rec.status == "adapted"
        assert [p for p, _ in rec.matches] == [ITEM0, ITEM1]
        # children follow the new parents without their own adaptation
        for kids in rec.children:
            assert [m.status for m in kids] == ["ok", "ok"]
        (report,) = reports
        assert report.rule_name == "record"
        assert report.trigger == "constraint_violation"
        assert report.succeeded
        assert report.algorithm == "weighted"
        assert report.candidates[0].score == pytest.approx(1.0)
        assert report.chosen_threshold == pytest.approx(0.95)
        assert report.template_action == "created"
        assert report.config_delta["before"] != report.config_delta["after"]
        assert new_w is not None
        assert new_w.version == 2

    def test_new_plan_locates_moved_records(self):
        w = build_wrapper()
        ctx = ctx_for(WRAPPED_HTML)
        _, _, new_w = execute_wrapper(w, ctx)
        rule = new_w.find_rule("record")
        assert "item" in rule.plan.best.to_string()
        assert rule.adaptation.last_chosen == pytest.approx(0.95)
        # interval thresholds keep their bounds after write-back
        assert rule.adaptation.threshold == (0.4, 0.95)
        assert rule.stored_example.captured_from == "page-m"

    def test_repair_is_idempotent(self):
        w = build_wrapper()
        ctx = ctx_for(WRAPPED_HTML)
        _, _, repaired = execute_wrapper(w, ctx)
        results, reports, again = execute_wrapper(repaired, ctx_for(WRAPPED_HTML))
        assert reports == []
        assert again is None
        assert results[0].status == "ok"
        assert [p for p, _ in results[0].matches] == [ITEM0, ITEM1]

    def test_update_stored_off_keeps_plan_and_example(self):
        w = build_wrapper(update_stored=False)
        ctx = ctx_for(WRAPPED_HTML)
        _, reports, new_w = execute_wrapper(w, ctx)
        rule = new_w.find_rule("record")
        old = w.find_rule("record")
        assert rule.plan.best.to_string() == old.plan.best.to_string()
        assert serialize(rule.stored_example.subtree) == serialize(old.stored_example.subtree)
        assert rule.adaptation.last_chosen == pytest.approx(0.95)
        assert reports[0].succeeded

    def test_rule_without_adaptation_fails_and_skips_children(self):
        w = build_wrapper()
        bare = Rule(
            name="record",
            plan=w.find_rule("record").plan,
            constraints=(CardinalityConstraint(1, None),),
            children=w.find_rule("record").children,
        )
        w2 = Wrapper(name="shop", version=1, root_rules=(bare,))
        results, reports, new_w = execute_wrapper(w2, ctx_for(WRAPPED_HTML))
        assert results[0].status == "failed"
        assert results[0].matches == ()
        assert reports == []
        assert new_w is None


class TestTemplateRescue:
    def test_matching_template_avoids_any_change(self):
        w = build_wrapper(with_template=True)
        ctx = ctx_for(WRAPPED_HTML)
        results, reports, new_w = execute_wrapper(w, ctx)
        assert results[0].status == "adapted"
        assert [p for p, _ in results[0].matches] == [ITEM0, ITEM1]
        (report,) = reports
        assert report.chosen_threshold is None
        assert report.algorithm is None
        assert report.config_delta == {}
        assert "no further action" in report.notes[0]
        assert new_w is None  # nothing changed, no version bump


class TestTopDown:
    def test_child_adaptations_attributed_to_cascade(self):
        w = build_wrapper(record_triggers=("top_down",))
        ctx = ctx_for(WRAPPED_COST_HTML)
        results, reports, new_w = execute_wrapper(w, ctx)
        (rec,) = results
        assert rec.status == "adapted"
        statuses = {m.rule_name: m.status for kids in rec.children for m in kids}
        assert statuses == {"name": "ok", "price": "adapted"}
        by_rule = {r.rule_name: r for r in reports}
        assert by_rule["record"].trigger == "constraint_violation"
        assert by_rule["record/price"].trigger == "top_down"
        assert "record/name" not in by_rule  # nothing to adapt there
        price = new_w.find_rule("record/price")
        assert "cost" in price.plan.best.to_string()
        # extraction still finds the right values
        texts = [[m.matches[0][1] for m in kids] for kids in rec.children]
        assert texts == [["Alpha", "10.00"], ["Beta", "20.00"]]

    def test_opt_out_child_keeps_its_own_attribution(self):
        w = build_wrapper(record_triggers=("top_down",), opt_out=True)
        _, reports, _ = execute_wrapper(w, ctx_for(WRAPPED_COST_HTML))
        by_rule = {r.rule_name: r for r in reports}
        assert by_rule["record/price"].trigger == "constraint_violation"

    def test_without_top_down_children_adapt_on_their_own(self):
        w = build_wrapper()
        _, reports, _ = execute_wrapper(w, ctx_for(WRAPPED_COST_HTML))
        by_rule = {r.rule_name: r for r in reports}
        assert by_rule["record/price"].trigger == "constraint_violation"
        assert by_rule["record/price"].succeeded


class TestBottomUp:
    def test_stale_parent_is_refreshed_once(self):
        # the structural fallback keeps the parent "satisfied" on the wrong
        # node; only the failing child can notice
        w = build_wrapper(structural_fallback=True, child_triggers=("bottom_up",))
        ctx = ctx_for(WRAPPED_HTML)
        results, reports, new_w = execute_wrapper(w, ctx)
        (rec,) = results
        assert rec.status == "adapted"
        assert [p for p, _ in rec.matches] == [ITEM0, ITEM1]
        for kids in rec.children:
            assert [m.status for m in kids] == ["ok", "ok"]
        failed = [r for r in reports if not r.succeeded]
        assert failed and failed[0].rule_name == "record/name"
        forced = [r for r in reports if r.trigger == "bottom_up"]
        assert len(forced) == 1
        assert forced[0].rule_name == "record"
        assert forced[0].succeeded
        assert new_w.version == 2

    def test_root_rule_has_no_parent_to_refresh(self):
        w = build_wrapper(record_triggers=("bottom_up",))
        results, reports, new_w = execute_wrapper(w, ctx_for(EMPTY_HTML))
        assert results[0].status == "failed"
        (report,) = reports
        assert not report.succeeded
        assert report.trigger != "bottom_up"
        assert new_w is None

    def test_without_bottom_up_child_just_fails(self):
        w = build_wrapper(structural_fallback=True)
        results, reports, _ = execute_wrapper(w, ctx_for(WRAPPED_HTML))
        (rec,) = results
        assert rec.status == "ok"  # parent never learns it matched the wrapper div
        statuses = [m.status for kids in rec.children for m in kids]
        assert "failed" in statuses
        assert all(not r.succeeded for r in reports)


class TestPartialSalvage:
    # one record genuinely lost its name span; the other must survive
    MISSING_NAME = (
        '<html><body><div id="main">'
        '<div class="record"><span class="price">10.00</span></div>'
        '<div class="record"><span class="name">Beta</span><span class="price">20.00</span></div>'
        "</div></body></html>"
    )

    def test_unrepairable_context_does_not_sink_the_rest(self):
        w = build_wrapper(child_triggers=("bottom_up",))
        results, reports, _ = execute_wrapper(w, ctx_for(self.MISSING_NAME))
        (rec,) = results
        assert rec.status == "ok"
        names = [kids[0] for kids in rec.children]
        assert [n.status for n in names] == ["failed", "ok"]
        assert [n.locator for n in names] == [None, "attribute"]
        assert names[1].matches[0][1] == "Beta"
        prices = [kids[1] for kids in rec.children]
        assert [p.status for p in prices] == ["ok", "ok"]
        # the page is truly missing the data: no parent refresh can help,
        # and a partially working child must not force one
        assert all(r.trigger != "bottom_up" for r in reports)
        failed = [r for r in reports if not r.succeeded]
        assert failed and failed[0].rule_name == "record/name"

    def test_failed_advance_keeps_the_salvage_on_its_own_page(self):
        # the child advances to an alternate page that does not help; what
        # it salvaged, and its sibling, stay on the primary page
        w = build_wrapper(child_triggers=("process_flow",))
        ctx = ExecutionContext(
            pages=(
                parse_html(self.MISSING_NAME, source_id="p0"),
                parse_html(EMPTY_HTML, source_id="p1"),
            )
        )
        (rec,), _, _ = execute_wrapper(w, ctx)
        assert rec.page == 0
        names = [kids[0] for kids in rec.children]
        assert [n.status for n in names] == ["failed", "ok"]
        assert names[1].page == 0
        assert names[1].matches[0][1] == "Beta"
        prices = [kids[1] for kids in rec.children]
        assert [(p.status, p.page) for p in prices] == [("ok", 0), ("ok", 0)]
        assert [p.matches[0][1] for p in prices] == ["10.00", "20.00"]


class TestProcessFlow:
    def test_alternate_page_satisfies_the_plan(self):
        w = build_wrapper(record_triggers=("process_flow",))
        ctx = ExecutionContext(
            pages=(parse_html(EMPTY_HTML, source_id="p0"), original_page("p1"))
        )
        results, reports, new_w = execute_wrapper(w, ctx)
        (rec,) = results
        assert rec.status == "ok"
        assert [p for p, _ in rec.matches] == [REC0, REC1]
        # the paths belong to the alternate page, and the results say so
        assert rec.page == 1
        assert {kid.page for kids in rec.children for kid in kids} == {1}
        assert rec.to_dict()["page"] == 1
        assert len(reports) == 1 and not reports[0].succeeded
        assert new_w is None

    def test_child_advance_leaves_the_parent_on_its_own_page(self):
        # the names are gone from the primary page, so only the child
        # advances; the records were found on the primary page
        no_names = ORIGINAL_HTML.replace('<span class="name">Alpha</span>', "").replace(
            '<span class="name">Beta</span>', ""
        )
        w = build_wrapper(child_triggers=("process_flow",))
        ctx = ExecutionContext(
            pages=(parse_html(no_names, source_id="p0"), original_page("p1"))
        )
        (rec,), _, _ = execute_wrapper(w, ctx)
        assert [p for p, _ in rec.matches] == [REC0, REC1]
        assert rec.page == 0
        assert [kids[0].page for kids in rec.children] == [1, 1]
        # the sibling stays on its parent's page
        prices = [kids[1] for kids in rec.children]
        assert [(p.status, p.page) for p in prices] == [("ok", 0), ("ok", 0)]
        assert [p.matches[0][1] for p in prices] == ["10.00", "20.00"]

    def test_child_advance_finds_its_contexts_on_the_alternate_page(self, monkeypatch):
        # children get their parent's nodes, which belong to the primary
        # page: under those the names are gone, so the plan can only hold
        # as-is if the advance looks the contexts up on the alternate page
        no_names = ORIGINAL_HTML.replace('<span class="name">Alpha</span>', "").replace(
            '<span class="name">Beta</span>', ""
        )
        handed = []  # per apply_plan call given a node: is it the node at the path?
        apply_plan = engine.apply_plan

        def checking_apply_plan(plan, tree, *args, context_path=None, context_node=None, **kw):
            if context_node is not None:
                handed.append(context_node is resolve(tree, context_path))
            return apply_plan(
                plan, tree, *args, context_path=context_path, context_node=context_node, **kw
            )

        monkeypatch.setattr(engine, "apply_plan", checking_apply_plan)
        w = build_wrapper(child_triggers=("process_flow",))
        ctx = ExecutionContext(pages=(parse_html(no_names, source_id="p0"), original_page("p1")))
        (rec,), _, _ = execute_wrapper(w, ctx)
        names = [kids[0] for kids in rec.children]
        assert [(n.status, n.page) for n in names] == [("ok", 1), ("ok", 1)]
        assert [n.matches[0][1] for n in names] == ["Alpha", "Beta"]
        # the record's children were handed its nodes, every one from its own page
        assert handed and all(handed)

    def test_repair_after_an_advance_runs_on_the_alternate_page(self):
        # no page satisfies the plan: the repair fails on the primary page
        # and succeeds on the alternate one, where the records now live
        w = build_wrapper(record_triggers=("process_flow",))
        ctx = ExecutionContext(
            pages=(parse_html(EMPTY_HTML, source_id="p0"), parse_html(WRAPPED_HTML, source_id="p1"))
        )
        results, reports, new_w = execute_wrapper(w, ctx)
        (rec,) = results
        assert (rec.status, rec.page, rec.locator) == ("adapted", 1, None)
        assert [p for p, _ in rec.matches] == [ITEM0, ITEM1]
        kids = [kid for kids in rec.children for kid in kids]
        assert [(kid.status, kid.page) for kid in kids] == [("ok", 1)] * 4
        assert [kid.matches[0][1] for kid in kids] == ["Alpha", "10.00", "Beta", "20.00"]
        assert [(r.rule_name, r.succeeded) for r in reports] == [
            ("record", False),
            ("record", True),
        ]
        assert new_w is not None and new_w.version == 2
        assert new_w.find_rule("record").stored_example.captured_from == "p1"

    def test_single_page_bundle_just_fails(self):
        w = build_wrapper(record_triggers=("process_flow",))
        ctx = ctx_for(EMPTY_HTML)
        results, reports, new_w = execute_wrapper(w, ctx)
        assert results[0].status == "failed"
        assert new_w is None

    def test_reruns_over_one_bundle_repeat(self):
        w = build_wrapper(record_triggers=("process_flow",))
        ctx = ExecutionContext(
            pages=(parse_html(EMPTY_HTML, source_id="p0"), original_page("p1"))
        )
        first = execute_wrapper(w, ctx)
        # a second run over the same bundle starts from the primary page
        # again, so it fails there and advances exactly as the first did
        second = execute_wrapper(w, ctx)
        assert [r.to_dict() for r in second[0]] == [r.to_dict() for r in first[0]]
        assert len(second[1]) == len(first[1]) == 1
        assert not second[1][0].succeeded


class TestAdaptRuleDirect:
    def test_no_adaptation_config(self):
        w = build_wrapper()
        record = w.find_rule("record")
        bare = Rule(name="solo", plan=record.plan, constraints=record.constraints)
        with pytest.raises(AdaptationFailed) as exc:
            adapt_rule(bare, parse_html(WRAPPED_HTML))
        assert not exc.value.report.succeeded

    def test_no_stored_example(self):
        w = build_wrapper()
        record = w.find_rule("record")
        rule = Rule(
            name="record",
            plan=record.plan,
            constraints=record.constraints,
            adaptation=record.adaptation,
        )
        with pytest.raises(AdaptationFailed) as exc:
            adapt_rule(rule, parse_html(WRAPPED_HTML))
        assert "stored" in str(exc.value)

    def test_unsatisfiable_page_reports_failure(self):
        w = build_wrapper()
        record = w.find_rule("record")
        with pytest.raises(AdaptationFailed) as exc:
            adapt_rule(record, parse_html(EMPTY_HTML), constraints=record.constraints)
        assert exc.value.report.trigger == "constraint_violation"
        assert exc.value.report.candidates == ()

    def test_successful_repair_returns_new_rule(self):
        w = build_wrapper()
        record = w.find_rule("record")
        page = parse_html(WRAPPED_HTML)
        new_rule, report, matches = adapt_rule(record, page, constraints=record.constraints)
        assert new_rule is not record
        assert report.resolved == (ITEM0, ITEM1)
        assert resolve(page, report.resolved[0]).attributes["class"] == "item"
        assert matches == [[(ITEM0, resolve(page, ITEM0)), (ITEM1, resolve(page, ITEM1))]]

    def test_context_paths_scope_the_search(self):
        # restricted to the second item, exactly-one is satisfiable
        w = build_wrapper()
        price = w.find_rule("record/price")
        page = parse_html(WRAPPED_COST_HTML)
        new_rule, report, _ = adapt_rule(
            price,
            page,
            constraints=price.constraints,
            context_paths=[ITEM1],
        )
        assert report.resolved == (ITEM1 + (1,),)
        assert resolve(page, report.resolved[0]).text == "20.00"

    def test_template_past_the_nesting_bound_is_not_stored(self, tmp_path):
        # records holding a 120-deep chain learn a 121-level template, which
        # under a top-level rule would nest 122 deep in the wrapper file
        chain = "<div>" * 120 + "deep" + "</div>" * 120

        def listing(cls):
            return parse_html(
                '<html><body><div id="main">%s</div></body></html>'
                % "".join(
                    '<div class="%s"><span class="name">N%d</span>'
                    '<span class="price">%d.00</span>%s</div>' % (cls, i, i, chain)
                    for i in range(3)
                )
            )

        wrapper = author_wrapper(listing("record"))
        _, reports, repaired = execute_wrapper(
            wrapper, ExecutionContext(pages=(listing("item"),))
        )
        report = reports[0]
        assert report.rule_name == "record" and report.succeeded
        assert report.template_action == "none"
        assert "template not updated: it would nest 121 deep, more than 99" in report.notes
        assert repaired.find_rule("record").template is None
        # the repair still commits
        store = WrapperStore(tmp_path)
        store.commit(wrapper)
        store.commit(repaired)
        assert [r.version for r in store.history("listing")] == [1, 2]
        assert store.checkout("listing") == repaired


class TestAttemptBudget:
    def test_zero_budget_fails_fast(self):
        w = build_wrapper()
        results, reports, new_w = execute_wrapper(
            w, ctx_for(WRAPPED_HTML), max_cascade_depth=0
        )
        assert results[0].status == "failed"
        assert len(reports) == 1
        assert "budget" in reports[0].notes[0]
        assert new_w is None

    def test_attempts_bounded_by_depth_times_pages(self):
        w = build_wrapper(record_triggers=("process_flow",))
        pages = tuple(parse_html(EMPTY_HTML, source_id="p%d" % i) for i in range(4))
        ctx = ExecutionContext(pages=pages)
        results, reports, _ = execute_wrapper(w, ctx, max_cascade_depth=3)
        assert results[0].status == "failed"
        record_attempts = [r for r in reports if r.rule_name == "record"]
        assert 1 <= len(record_attempts) <= 3 * len(pages)


class TestContextValidation:
    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext(pages=())

    def test_custom_clock_lands_in_stored_example(self):
        w = build_wrapper()
        ctx = ExecutionContext(
            pages=(parse_html(WRAPPED_HTML, source_id="pm"),),
            clock=lambda: "2026-02-01T00:00:00+00:00",
        )
        _, _, new_w = execute_wrapper(w, ctx)
        rule = new_w.find_rule("record")
        assert rule.stored_example.captured_at == "2026-02-01T00:00:00+00:00"


def sized_listing(n_records, seed=3):
    """A corpus listing with n_records records: generate_page draws the
    record count with its first randint."""
    rng = random.Random(seed)
    draw = rng.randint

    def first(a, b):
        rng.randint = draw
        return n_records

    rng.randint = first
    html = generate_page(rng)
    assert html.count('class="record"') == n_records
    return html


class TestRepairWorkGrowth:
    """A child rule repaired under every record does O(depth) scoping and
    splitting work per path, so its bookkeeping grows with the records,
    not with records times candidates."""

    def repair_listing(self, monkeypatch, n_records, patch):
        """Repair every record's renamed name on an n-record listing while
        patch(m, page) is in place; returns the one report."""
        wrapper = author_wrapper(parse_html(sized_listing(n_records)))
        page = parse_html(sized_listing(n_records).replace('class="name"', 'class="title"'))
        with monkeypatch.context() as m:
            patch(m, page)
            _, reports, _ = execute_wrapper(wrapper, ExecutionContext(pages=(page,)))
        assert [(r.rule_name, r.succeeded) for r in reports] == [("record/name", True)]
        return reports[0]

    def bookkeeping_calls(self, monkeypatch, n_records):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def patch(m, page):
            m.setattr(engine, "resolve", counting("resolve", engine.resolve))
            m.setattr(Containment, "holders", counting("holders", Containment.holders))

        self.repair_listing(monkeypatch, n_records, patch)
        assert calls["holders"] > 0
        return sum(calls.values())

    def test_forty_records_cost_at_most_five_times_ten(self, monkeypatch):
        ten = self.bookkeeping_calls(monkeypatch, 10)
        forty = self.bookkeeping_calls(monkeypatch, 40)
        assert forty <= 5 * ten, (ten, forty)

    def test_a_repair_resolves_each_candidate_once_from_the_page(self, monkeypatch):
        from_page = []

        def patch(m, page):
            resolve_ = engine.resolve

            def counted(tree, path):
                if tree is page:
                    from_page.append(path)
                return resolve_(tree, path)

            m.setattr(engine, "resolve", counted)

        report = self.repair_listing(monkeypatch, 10, patch)
        assert from_page
        assert len(from_page) <= len(report.candidates), (len(from_page), len(report.candidates))


class TestHopelessSearch:
    """Admitted sets only grow as the threshold falls, so a search stops
    at the first set that no lower threshold can mend."""

    def test_a_datatype_failure_ends_the_search(self, monkeypatch):
        html = sized_listing(10)
        price = author_wrapper(parse_html(html)).find_rule("record/price")
        # one record's name span twice: price's residual (1,) lands on a name
        at = html.index('<span class="name">')
        span = html[at : html.index("</span>", at) + len("</span>")]
        page = parse_html(html[:at] + span + html[at:])
        records = [p for p, n in enumerate_subtrees(page) if n.attributes.get("class") == "record"]
        searches = []  # (thresholds, accept calls) per threshold_search
        search = engine.threshold_search

        def counting(scores, interval, accept):
            low, high = interval
            calls = []

            def counted(t):
                calls.append(t)
                return accept(t)

            try:
                return search(scores, interval, counted)
            finally:
                searches.append((len({s for s in scores if low <= s <= high} | {low, high}), len(calls)))

        monkeypatch.setattr(engine, "threshold_search", counting)
        with pytest.raises(AdaptationFailed) as exc:
            adapt_rule(price, page, context_paths=records, clock=lambda: "t")
        assert "no threshold in [0.4, 0.95]" in exc.value.report.notes[0]
        assert searches and all(calls < thresholds for thresholds, calls in searches), searches


class TestSharedRepairWork:
    """Rules that repair on one page share its ranked candidates, template
    folds and anchors; each still repairs as it would alone."""

    @pytest.mark.parametrize("operations", [ops for _, ops in SCENARIOS], ids=[n for n, _ in SCENARIOS])
    def test_each_scenario_repairs_as_its_rules_would_alone(self, monkeypatch, operations):
        adapt = engine.adapt_rule

        def alone(*args, page_work=None, **kwargs):
            return adapt(*args, **kwargs)

        for seed in range(4):
            intact = parse_html(generate_page(random.Random(seed)))
            wrapper = author_wrapper(intact)
            # two damaged pages, so that process_flow advances repair on
            # the second with its own page work
            pages = tuple(
                mutate_tree(intact, MutationSpec(operations=operations, seed=s, rate=0.3))[0]
                for s in (seed, seed + 10)
            )
            ctx = ExecutionContext(pages=pages, clock=lambda: "t")
            results, reports, new = execute_wrapper(wrapper, ctx)
            with monkeypatch.context() as m:
                m.setattr(engine, "adapt_rule", alone)
                solo_results, solo_reports, solo_new = execute_wrapper(wrapper, ctx)
            assert [r.to_dict() for r in reports] == [r.to_dict() for r in solo_reports]
            assert [r.to_dict() for r in results] == [r.to_dict() for r in solo_results]
            assert new == solo_new

    def best_matches_calls(self, monkeypatch, **price_changes):
        """engine.best_matches calls while name and price repair on one page,
        price's adaptation config changed as given."""
        wrapper = build_wrapper().map_rules(
            lambda path, rule: replace(rule, adaptation=replace(rule.adaptation, **price_changes))
            if path == "record/price"
            else rule
        )
        html = ORIGINAL_HTML.replace('"name"', '"title"').replace('"price"', '"cost"')
        calls = []
        ranked = engine.best_matches

        def counted(*args, **kwargs):
            calls.append(args)
            return ranked(*args, **kwargs)

        monkeypatch.setattr(engine, "best_matches", counted)
        _, reports, _ = execute_wrapper(wrapper, ctx_for(html))
        assert [r.rule_name for r in reports] == ["record/name", "record/price"]
        return len(calls)

    def test_equal_stored_examples_are_scored_once(self, monkeypatch):
        assert self.best_matches_calls(monkeypatch) == 1

    @pytest.mark.parametrize(
        "changes",
        [
            # no node of the stored example has an id: its shape is the same
            {"labeler": Labeler(use_id_attribute=True)},
            {"algorithm": "simple"},
            {"threshold": (0.5, 0.95)},
        ],
        ids=["labeler", "algorithm", "interval_low"],
    )
    def test_a_different_scoring_is_scored_again(self, monkeypatch, changes):
        assert self.best_matches_calls(monkeypatch, **changes) == 2

    @pytest.mark.parametrize(
        "part", ["stored_shape", "template", "labeler", "roots"]
    )
    def test_a_rule_differing_in_one_key_part_repairs_as_alone(self, part):
        """name repairs on a page, then a copy of it differing in one part
        of the shared work's keys repairs with the same page work."""
        page = parse_html(
            ORIGINAL_HTML.replace("20.00</span>", "20.00</span><b>new</b>")
        )  # the second record has an extra child
        first = build_wrapper().find_rule("record/name")
        stored = first.stored_example
        exact = template_from_tree(stored.subtree)
        first_kw = second_kw = {"context_paths": [REC0, REC1]}
        if part == "stored_shape":
            extra = detach_subtree(stored.subtree)
            extra.children.append(DomNode("i"))
            second = replace(first, stored_example=replace(stored, subtree=extra))
        elif part == "template":
            first = replace(first, template=exact)
            extra = detach_subtree(stored.subtree)
            extra.children.append(DomNode("i"))
            second = replace(first, template=generalize(stored.subtree, extra))
        elif part == "labeler":
            first = replace(first, template=exact)
            labeler = Labeler(use_class_attribute=True)
            second = replace(first, adaptation=replace(first.adaptation, labeler=labeler))
        else:
            second = first
            second_kw = {"context_paths": [REC0]}

        def outcome(rule, work=None, **kwargs):
            try:
                new_rule, report, matches = adapt_rule(
                    rule, page, force=True, clock=lambda: "t", page_work=work, **kwargs
                )
            except AdaptationFailed as e:
                return e.report.to_dict(), None, None
            return report.to_dict(), new_rule, [[p for p, _ in m] for m in matches]

        def learned(result):
            """What the shared work decides: ranking, threshold and fold."""
            report, rule, _ = result
            return (
                report["candidates"],
                report["chosen_threshold"],
                report["template_action"],
                report["notes"],
                rule and rule.template,
            )

        work = engine._PageWork(page)
        before = outcome(first, work, **first_kw)
        alone = outcome(second, **second_kw)
        assert outcome(second, work, **second_kw) == alone
        # the part changes what is learned, so reusing first's work would show
        assert learned(alone) != learned(before)

    def test_each_rule_gets_its_own_nesting_verdict_from_a_shared_fold(self, monkeypatch):
        # records holding a 97-deep chain learn a 98-level template: room
        # for it under record/name, one level short under record/box/name
        chain = "<div>" * 97 + "deep" + "</div>" * 97

        def listing(cls):
            return parse_html(
                '<html><body><div id="main">%s</div></body></html>'
                % "".join(
                    '<div class="%s"><span class="name">N%d</span>'
                    '<span class="price">%d.00</span>%s</div>' % (cls, i, i, chain)
                    for i in range(3)
                )
            )

        name = author_wrapper(listing("record")).find_rule("record/name")
        page = listing("item")
        records = [p for p, n in enumerate_subtrees(page) if n.attributes.get("class") == "item"]
        generalized = []
        generalize = engine.generalize
        monkeypatch.setattr(engine, "generalize", lambda *a: generalized.append(a) or generalize(*a))
        for order in (("record/name", "record/box/name"), ("record/box/name", "record/name")):
            work = engine._PageWork(page)
            verdicts = {}
            for rule_path in order:
                new_rule, report, _ = adapt_rule(
                    name, page, context_paths=records, rule_path=rule_path, page_work=work, clock=lambda: "t"
                )
                verdicts[rule_path] = (report.template_action, report.notes, new_rule.template is None)
            assert verdicts == {
                "record/name": ("created", (), False),
                "record/box/name": (
                    "none",
                    ("template not updated: it would nest 98 deep, more than 97",),
                    True,
                ),
            }
        assert len(generalized) == 2  # one fold per page, shared by both paths

    def test_sibling_plan_regenerations_detect_anchors_once(self, monkeypatch):
        anchored, planned = [], []
        detect, generate = engine.detect_anchors, engine.generate_plan
        monkeypatch.setattr(engine, "detect_anchors", lambda *a: anchored.append(a) or detect(*a))
        monkeypatch.setattr(
            engine, "generate_plan", lambda *a, **k: planned.append(a) or generate(*a, **k)
        )
        html = ORIGINAL_HTML.replace('"name"', '"title"').replace('"price"', '"cost"')
        _, reports, new = execute_wrapper(build_wrapper(), ctx_for(html))
        assert [(r.rule_name, r.succeeded) for r in reports] == [
            ("record/name", True),
            ("record/price", True),
        ]
        assert new.find_rule("record/name").plan != build_wrapper().find_rule("record/name").plan
        assert len(planned) == 2
        assert len(anchored) == 1

    def test_a_failed_fold_fails_for_every_rule_that_asks(self):
        # refine refuses a "*" root, so folding the matched records into
        # it raises; each sibling rule meets the error, not a kept result
        wrapper = build_wrapper()
        page = original_page()
        work = engine._PageWork(page)
        refused = TreeTemplate("*")
        outcomes = []
        for rule_path in ("record/name", "record/price"):
            rule = replace(wrapper.find_rule(rule_path), template=refused)
            new_rule, report, matches = adapt_rule(
                rule,
                page,
                context_paths=[REC0, REC1],
                force=True,
                rule_path=rule_path,
                page_work=work,
                clock=lambda: "t",
            )
            assert new_rule.template is refused
            assert len(matches) == 2 and all(len(m) == 1 for m in matches)
            outcomes.append((report.succeeded, report.template_action, report.notes))
        note = "template not updated: root labels differ: '*' vs 'div||'"
        assert outcomes == [(True, "none", (note,))] * 2


@st.composite
def context_lists(draw, paths):
    """A non-empty list of contexts over paths holding None, (), nested,
    parent, sibling and duplicate paths, in any order."""
    drawn = draw(
        st.lists(st.one_of(st.none(), st.just(()), st.sampled_from(paths)), min_size=1, max_size=5)
    )
    contexts = list(drawn)
    for c in drawn:
        if not c:
            continue
        kind = draw(st.sampled_from(("nested", "parent", "sibling", "duplicate", "none")))
        if kind == "nested":
            below = [p for p in paths if len(p) > len(c) and p[: len(c)] == c]
            if below:
                contexts.append(draw(st.sampled_from(below)))
        elif kind == "parent":
            contexts.append(c[:-1])
        elif kind == "sibling" and c[:-1] + (c[-1] + 1,) in paths:
            contexts.append(c[:-1] + (c[-1] + 1,))
        elif kind == "duplicate":
            contexts.append(c)
    return draw(st.permutations(contexts))


@st.composite
def contexts_and_targets(draw):
    """A random tree, a context list over its paths, and target paths of
    the tree."""
    seed = draw(st.integers(0, 2**32 - 1))
    tree = DomTree(root=random_node(random.Random(seed), max_depth=4, max_branch=3))
    paths = sorted(p for p, _ in enumerate_subtrees(tree))
    contexts = draw(context_lists(paths))
    targets = draw(st.lists(st.sampled_from(paths), max_size=12))
    return tree, contexts, targets


class TestContainmentDifferential:
    """The containment index, and a repair's scoping and per-context
    split, against brute force over `inside`."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(contexts_and_targets())
    def test_holders_are_the_contexts_inside_holds(self, case):
        tree, contexts, targets = case
        holding = Containment(contexts)
        for t in targets:
            assert holding.holders(t) == [i for i, c in enumerate(contexts) if inside(t, c)]

    def repair_in_contexts(self, seed, data):
        """Repair a drawn rule on a damaged page within drawn contexts;
        returns the page, the contexts, the rule, the report and the
        matches (None when the repair failed)."""
        # a damaged page, so that the ranking differs from document order
        intact = parse_html(generate_page(random.Random(seed)))
        _, operations = data.draw(st.sampled_from(SCENARIOS))
        page = mutate_tree(intact, MutationSpec(operations=operations, seed=seed, rate=0.3))[0]
        rule = author_wrapper(intact).find_rule(data.draw(st.sampled_from(("record", "record/name"))))
        contexts = data.draw(context_lists(sorted(p for p, _ in enumerate_subtrees(page))))
        try:
            _, report, matches = adapt_rule(rule, page, context_paths=contexts, clock=lambda: "t")
        except AdaptationFailed as e:
            report, matches = e.report, None
        return page, contexts, rule, report, matches

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_partition_gives_each_context_its_targets_in_order(self, seed, data):
        page, contexts, _, report, matches = self.repair_in_contexts(seed, data)
        if matches is not None:
            # each context gets its targets in document order, as a plan answers
            assert [[p for p, _ in found] for found in matches] == [
                [t for t in sorted(report.resolved) if inside(t, c)] for c in contexts
            ]
            assert all(node is resolve(page, p) for found in matches for p, node in found)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_repair_searches_the_candidates_inside_its_contexts(self, seed, data):
        page, contexts, rule, report, _ = self.repair_in_contexts(seed, data)
        cfg = rule.adaptation
        ranked = best_matches(
            rule.stored_example.subtree,
            page,
            cfg.labeler,
            algorithm=report.algorithm,
            min_score=cfg.interval[0],
        )
        held = tuple(c for c in ranked if any(inside(c.path, x) for x in contexts))
        assert report.candidates == held
        for t in report.resolved:
            assert any(inside(t, x) for x in contexts)
