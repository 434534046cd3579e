"""Wrapper execution and the self-repair loop.

Rules are evaluated top-down.  Each rule applies its locator plan per
parent context and validates the results against its effective
constraints; a violation triggers the adaptation pipeline:

  1. template rescue: if the rule has a learned template and its matches
     satisfy the constraints, use them; the rule itself is unchanged.
  2. similarity search: the stored example subtree is scored against
     every same-labeled subtree of the page, and threshold_search tries
     candidate thresholds inside the configured interval highest-first
     until the admitted set passes the same check as a template rescue
     (residual resolution, aggregate cardinality across parent contexts,
     datatypes).
  3. the template is generalized/refined with the matched subtrees.
  4. if configured, the stored example and locator plan are regenerated
     from the top-ranked match; the chosen threshold is recorded as the
     config's last_chosen.

The executor applies the trigger cascade as it evaluates.  When every
result of a child rule with bottom_up fails, its parent is force-adapted
once per execution and the children are evaluated again.  When a rule
with process_flow cannot be repaired, the next bundle page is tried,
from plan application on.  Each parent match is one context, which
carries the bundle page it was found on, and its children are evaluated
there: an advance moves only the advancing rule's contexts and their
descendants, never re-runs the parent, and leaves the contexts where
they were when no later page helps.  When a rule
with top_down adapted, its direct children's adaptations are reported
as top_down unless they opted out.
The input wrapper value is never modified; accumulated rule changes
produce a new wrapper with version + 1.

A child rule repairs under every match of its parent at once, so a
repair's bookkeeping is kept linear in those contexts: its one
dom.Containment index scopes candidates and splits the admitted targets
per context in O(depth) per path.  A repair resolves each candidate once
from the page, whatever thresholds it tries, and answers like a plan,
with (path, node) matches per context.  Children get their parent's
nodes, so their plans resolve no context from the root; a process_flow
advance looks the paths up again on its own page.

Rules that repair on one page share the work that does not depend on
which rule asks, for one execute_wrapper call and per bundle page, in one
memo that computes each content key once (_PageWork.once): the ranked
candidates of a stored example (keyed on its labeled shape, the labeler,
the algorithm and the interval's low end), the fold of admitted record
roots into a template (keyed on the starting template, or the stored
example's shape when there is none, the labeler and the roots), and the
page's anchors.  A record's field rules store the same record, so on a
drifted page they score and fold it once.  The fold refines each
distinct root shape once, and each rule still checks the folded
template against its own nesting room.  A failed fold is not kept: each
rule that asks meets the error.  Nothing is kept across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import itemgetter
from typing import Optional

from wrapmend.constraints import (
    CardinalityConstraint,
    DatatypeConstraint,
    validate_results,
)
from wrapmend.dom import Containment, DomNode, DomTree, NodePath, PathError, detach_subtree, resolve
from wrapmend.matching import best_matches, labeled_shape
from wrapmend.model import MAX_NESTING, Rule, StoredExample, Wrapper
from wrapmend.template import GeneralizeError, generalize, levels, refine, template_match
from wrapmend.xpath import PlanExhausted, XPathError, apply_plan, detect_anchors, generate_plan


class Unsatisfiable(ValueError):
    """No threshold in the allowed range satisfies the constraint."""


class AdaptationFailed(Exception):
    """Raised by adapt_rule; carries the failure report."""

    def __init__(self, report):
        super().__init__("; ".join(report.notes) or "adaptation failed")
        self.report = report


@dataclass
class ExecutionContext:
    """A snapshot bundle: the primary page, where execute_wrapper starts,
    plus alternates standing in for other windows/tabs, which a
    process_flow advance reaches by index."""

    pages: tuple
    clock: object = None  # callable returning an ISO timestamp string

    def __post_init__(self):
        self.pages = tuple(self.pages)
        if not self.pages:
            raise ValueError("page bundle must be non-empty")


@dataclass(slots=True)
class ExtractionResult:
    rule_name: str
    matches: tuple = ()  # of (NodePath, text)
    children: tuple = ()  # per match: tuple of child ExtractionResults
    status: str = "ok"  # ok | adapted | failed
    page: int = 0  # index in ExecutionContext.pages that the paths resolve on
    locator: Optional[str] = None  # tag of the answering plan entry; None if failed or repaired

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule_name,
            "status": self.status,
            "page": self.page,
            "locator": self.locator,
            "matches": [],
        }
        for (path, text), kids in zip(self.matches, self.children, strict=True):
            out["matches"].append(
                {
                    "path": list(path),
                    "text": text,
                    "children": [c.to_dict() for c in kids],
                }
            )
        return out


@dataclass
class AdaptationReport:
    rule_name: str
    trigger: str  # constraint_violation | top_down | bottom_up | process_flow
    algorithm: Optional[str] = None
    candidates: tuple = ()
    chosen_threshold: Optional[float] = None
    template_action: str = "none"  # created | refined | none
    config_delta: dict = field(default_factory=dict)
    resolved: tuple = ()  # final target paths after residual resolution
    succeeded: bool = True
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_name,
            "trigger": self.trigger,
            "algorithm": self.algorithm,
            "candidates": [
                {"path": list(c.path), "score": c.score, "rank": c.rank}
                for c in self.candidates
            ],
            "chosen_threshold": self.chosen_threshold,
            "template_action": self.template_action,
            "config_delta": self.config_delta,
            "resolved": [list(p) for p in self.resolved],
            "succeeded": self.succeeded,
            "notes": list(self.notes),
        }

    def delta_line(self) -> str:
        """A version-log line: the config keys that moved, and the template action."""
        before = self.config_delta.get("before", {})
        after = self.config_delta.get("after", {})
        bits = [
            "%s: %s -> %s" % (k, before.get(k), after.get(k))
            for k in sorted(set(before) | set(after))
            if before.get(k) != after.get(k)
        ]
        if self.template_action != "none":
            bits.append("template %s" % self.template_action)
        return "; ".join(bits) or "no config change"


def page_status(results, new_wrapper) -> str:
    """A run's status: "failed" when any result at any depth failed, even
    if other rules produced data; "adapted" when a result was repaired or
    the wrapper changed; "ok" otherwise.  `wrapmend run` exits 20 on "failed"."""
    seen = set()
    stack = list(results)
    while stack:
        r = stack.pop()
        seen.add(r.status)
        stack.extend(kid for kids in r.children for kid in kids)
    if "failed" in seen:
        return "failed"
    if new_wrapper is not None or "adapted" in seen:
        return "adapted"
    return "ok"


def threshold_search(scores, interval, accept):
    """Highest threshold that `accept` takes.  Candidates are the distinct
    scores inside the (low, high) interval plus its endpoints, tried
    highest first; `accept(t)` returns None to reject t, or raises
    Unsatisfiable to end the search when no lower threshold can be taken
    either.  Returns (threshold, accept's result).  Score order does not
    affect the result."""
    low, high = interval
    for t in sorted({s for s in scores if low <= s <= high} | {low, high}, reverse=True):
        admitted = accept(t)
        if admitted is not None:
            return t, admitted
    raise Unsatisfiable("no threshold in [%g, %g] is accepted" % (low, high))


def _config_summary(rule: Rule) -> dict:
    cfg = rule.adaptation.to_dict()
    return {
        "xpath_best": rule.plan.best.to_string(),
        "threshold": cfg["threshold"],
        "last_chosen": cfg["last_chosen"],
    }


def _failure(name, trigger, notes, candidates=(), algorithm=None) -> AdaptationFailed:
    """The error a failed repair raises, carrying its report."""
    return AdaptationFailed(
        AdaptationReport(
            rule_name=name,
            trigger=trigger,
            algorithm=algorithm,
            candidates=tuple(candidates),
            succeeded=False,
            notes=tuple(notes),
        )
    )


def _fold(template, stored: DomNode, roots, labeler):
    """(template, action) after folding matched roots into a template, or
    into the stored example generalized with the first root when there is
    none yet.  refine returns the template object unchanged when it
    accepts a root, so a root is skipped when that same object already
    accepted a root of its shape; after a merge every shape is refined
    again."""
    action = "refined"
    if template is None:
        template = generalize(stored, roots[0], labeler)
        roots = roots[1:]
        action = "created"
    start = template
    accepted = set()  # shapes the template object in hand accepted
    for m in roots:
        shape = labeled_shape(m, labeler)
        if shape in accepted:
            continue
        refined = refine(template, m, labeler)
        if refined is template:
            accepted.add(shape)
        else:
            template, accepted = refined, set()
    if action == "refined" and template is start:
        action = "none"
    return template, action


class _PageWork:
    """Repair work on one page that does not depend on the rule asking,
    each piece computed once per key.  Every rule holds its own copy of
    its stored example and template, so keys are content: labeled shapes,
    templates by value and root paths."""

    def __init__(self, page: DomTree):
        self.page = page
        self._done = {}

    def once(self, key, compute):
        """The value stored under key, or compute()'s, stored first.  An
        exception propagates and stores nothing, so the next rule asking
        computes again and meets it too."""
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]


def adapt_rule(
    rule: Rule,
    page: DomTree,
    *,
    clock=None,
    constraints=None,
    context_paths=(None,),
    trigger: str = "constraint_violation",
    force: bool = False,
    rule_path: Optional[str] = None,
    page_work: Optional[_PageWork] = None,
):
    """Run the repair pipeline for one rule on one page.  clock, when
    given, returns the ISO timestamp a new stored example records.
    context_paths are the parent matches to search under; None stands
    for the whole document.  page_work, from the executor, holds the work
    earlier repairs on this page did that this one can reuse; a direct
    call does its own.
    Returns (new rule, report, matches); the rule comes back identical
    when a template rescue sufficed.  matches holds the admitted targets
    per context as (path, node) pairs in document order, as a plan
    answers.  Raises AdaptationFailed when nothing in the allowed
    threshold range satisfies the constraints."""
    if page_work is None:
        page_work = _PageWork(page)
    elif page_work.page is not page:
        raise ValueError("page_work belongs to another page")
    name = rule_path or rule.name
    cfg = rule.adaptation
    if cfg is None:
        raise _failure(name, trigger, ["rule has no adaptation config"])
    if constraints is None:
        constraints = rule.constraints
    ctxs = [None if c is None else tuple(c) for c in context_paths]
    parents = len(ctxs)
    # bounds hold per context, and admit counts the results of all contexts
    card = [
        CardinalityConstraint(
            c.min_count * parents,
            None if c.max_count is None else c.max_count * parents,
        )
        for c in constraints
        if isinstance(c, CardinalityConstraint)
    ]
    data = [c for c in constraints if isinstance(c, DatatypeConstraint)]
    stored = rule.stored_example
    residual = stored.residual_path if stored is not None else ()

    holding = Containment(ctxs)
    # candidate path -> (path, root, target, node), or False when the
    # residual does not resolve: threshold_search admits growing prefixes
    # of one ranked list, so each path is resolved once per repair
    landed = {}

    def admit(paths, growing=False):
        """(path, root node, target, node) for every path whose residual
        resolves, or None when that set breaks the constraints.  growing
        says each call passes a superset of the last: a set no superset
        can mend, with a datatype failing or more targets than the
        cardinality allows, then raises Unsatisfiable."""
        found = []
        for p in paths:
            hit = landed.get(p)
            if hit is None:
                try:
                    root = resolve(page, p)
                    hit = (p, root, p + residual, resolve(root, residual))
                except PathError:
                    hit = False  # matched subtree too shallow for the residual
                landed[p] = hit
            if hit:
                found.append(hit)
        n = len(found)
        if n and all(c.admits(n) for c in card):
            if not validate_results([(t, node.text) for _, _, t, node in found], data):
                return found
            hopeless = True
        else:
            hopeless = any(c.max_count is not None and n > c.max_count for c in card)
        if growing and hopeless:
            raise Unsatisfiable("%d admitted targets break the constraints" % n)
        return None

    def split(found):
        """The admitted targets per context, (path, node) in document order."""
        per_ctx = [[] for _ in ctxs]
        for _, _, target, node in sorted(found, key=itemgetter(2)):
            for i in holding.holders(target):
                per_ctx[i].append((target, node))
        return per_ctx

    # 1. template rescue: shape knowledge may localize the data without
    # touching the rule at all
    if rule.template is not None and not force:
        found = admit(
            [p for p in template_match(rule.template, page, cfg.labeler) if holding.holders(p)]
        )
        if found is not None:
            report = AdaptationReport(
                rule_name=name,
                trigger=trigger,
                resolved=tuple(t for _, _, t, _ in found),
                succeeded=True,
                notes=("template matched; no further action",),
            )
            return rule, report, split(found)

    if stored is None:
        raise _failure(name, trigger, ["no stored example to search with"])
    low, high = cfg.interval
    shape = labeled_shape(stored.subtree, cfg.labeler)

    for algorithm in cfg.algorithms():
        # a shared list: filtered into a new one, never changed in place
        ranked = page_work.once(
            ("ranked", shape, cfg.labeler, algorithm, low),
            lambda: best_matches(
                stored.subtree, page, cfg.labeler, algorithm=algorithm, min_score=low
            ),
        )
        usable = [c for c in ranked if holding.holders(c.path)]
        try:
            chosen, resolved = threshold_search(
                [c.score for c in usable],
                cfg.interval,
                lambda t: admit([c.path for c in usable if c.score >= t], growing=True),
            )
            break
        except Unsatisfiable:
            continue
    else:
        raise _failure(
            name,
            trigger,
            ["no threshold in [%g, %g] yields results satisfying the constraints" % (low, high)],
            candidates=usable,
            algorithm=algorithm,
        )

    notes = []

    # 2. fold the matched shapes into the template
    try:
        # the stored example's shape counts only while there is no template
        new_template, template_action = page_work.once(
            (
                "fold",
                rule.template,
                shape if rule.template is None else None,
                cfg.labeler,
                tuple(p for p, _, _, _ in resolved),
            ),
            lambda: _fold(
                rule.template, stored.subtree, [root for _, root, _, _ in resolved], cfg.labeler
            ),
        )
        # the file nests a rule's template one level below the rule
        room = MAX_NESTING - (name.count("/") + 1)
        span = levels(new_template)
        if span > room:
            raise GeneralizeError("it would nest %d deep, more than %d" % (span, room))
    except GeneralizeError as e:
        new_template = rule.template
        template_action = "none"
        notes.append("template not updated: %s" % (e,))

    # 3. re-anchor the stored example and plan on the top match
    new_stored = stored
    new_plan = rule.plan
    matches = split(resolved)
    if cfg.update_stored:
        _, top, top_target, _ = resolved[0]
        new_stored = StoredExample(
            subtree=detach_subtree(top),
            residual_path=stored.residual_path,
            captured_from=page.source_id,
            captured_at=(
                clock()
                if clock is not None
                else datetime.now(timezone.utc).isoformat(timespec="seconds")
            ),
        )
        first = holding.holders(top_target)[0]
        plan_targets = [t for t, _ in matches[first]]
        try:
            new_plan = generate_plan(
                page,
                top_target,
                context_path=ctxs[first],
                cohort=plan_targets if len(plan_targets) > 1 else None,
                anchors=page_work.once("anchors", lambda: detect_anchors(page)),
            )
        except XPathError as e:
            notes.append("plan kept: %s" % (e,))

    new_rule = replace(
        rule,
        plan=new_plan,
        stored_example=new_stored,
        template=new_template,
        adaptation=replace(cfg, last_chosen=chosen),
    )
    report = AdaptationReport(
        rule_name=name,
        trigger=trigger,
        algorithm=algorithm,
        candidates=tuple(usable),
        chosen_threshold=chosen,
        template_action=template_action,
        config_delta={
            "before": _config_summary(rule),
            "after": _config_summary(new_rule),
        },
        resolved=tuple(t for _, _, t, _ in resolved),
        succeeded=True,
        notes=tuple(notes),
    )
    return new_rule, report, matches


@dataclass(slots=True)
class _Context:
    """One parent match, or the document, and a rule's answer under it."""

    path: Optional[NodePath]  # None is the document
    node: Optional[DomNode]  # the node at path on page, or None to resolve it there
    page: int  # index in ExecutionContext.pages
    matches: Optional[list] = None  # (path, node) pairs; None while the plan is violated
    locator: Optional[str] = None  # tag of the answering plan entry
    status: str = "ok"  # ok | adapted | failed


class _Executor:
    def __init__(self, wrapper: Wrapper, ctx: ExecutionContext, max_cascade_depth: int):
        self.wrapper = wrapper
        self.ctx = ctx
        self.max_depth = max_cascade_depth
        self.reports = []
        self.changed = {}  # rule path -> adapted Rule
        self.attempts = {}  # rule path -> adaptation attempts
        self.forced_parents = set()
        # per bundle page, the repair work rules share on it, for this call only
        self.page_work = [_PageWork(page) for page in ctx.pages]

    def run(self):
        return [
            self._eval(rule, rule.name, [_Context(None, None, 0)], "constraint_violation")[0]
            for rule in self.wrapper.root_rules
        ]

    # -- adaptation bookkeeping

    def _adapt(self, rule, rule_path, contexts, trigger, force=False):
        """One counted repair on the contexts' page; each context gets its
        share of the matches, status adapted and no locator."""
        try:
            if self.attempts.get(rule_path, 0) >= self.max_depth * len(self.ctx.pages):
                raise _failure(rule_path, trigger, ["adaptation attempt budget exhausted"])
            self.attempts[rule_path] = self.attempts.get(rule_path, 0) + 1
            work = self.page_work[contexts[0].page]
            new_rule, report, matches = adapt_rule(
                rule,
                work.page,
                clock=self.ctx.clock,
                constraints=self.wrapper.effective_constraints(rule),
                context_paths=[c.path for c in contexts],
                trigger=trigger,
                force=force,
                rule_path=rule_path,
                page_work=work,
            )
        except AdaptationFailed as e:
            self.reports.append(e.report)
            raise
        self.reports.append(report)
        if new_rule is not rule:
            self.changed[rule_path] = new_rule
        for c, found in zip(contexts, matches):
            c.matches, c.locator, c.status = found, None, "adapted"

    def _repair(self, rule, rule_path, contexts, trigger):
        """Adapt with process_flow page advances.  Returns the answered
        contexts, or None when everything is exhausted.  After an advance
        they are fresh contexts on the new page; the given ones stay as
        the plan left them."""
        while True:
            current = self.changed.get(rule_path, rule)
            try:
                self._adapt(current, rule_path, contexts, trigger)
                return contexts
            except AdaptationFailed:
                page = contexts[0].page + 1
                if "process_flow" not in current.adaptation.triggers or page == len(self.ctx.pages):
                    return None
                # the alternate page may satisfy the plan as-is.  The
                # parent's nodes belong to its own page, so the context
                # paths are resolved on this one
                contexts = [_Context(c.path, None, page) for c in contexts]
                if self._apply_contexts(current, contexts):
                    return contexts

    def _apply_contexts(self, rule, contexts):
        """Apply the plan under each context on its page, filling in its
        matches and the answering locator.  A violated context keeps
        matches None (an empty list is a legitimate result under
        min_count 0).  Returns whether every context was satisfied."""
        constraints = self.wrapper.effective_constraints(rule)
        pages = self.ctx.pages
        ok = True
        for c in contexts:
            try:
                c.matches, c.locator = apply_plan(
                    rule.plan,
                    pages[c.page],
                    constraints,
                    context_path=c.path,
                    context_node=c.node,
                )
            except (PlanExhausted, PathError):
                ok = False
        return ok

    # -- evaluation

    def _eval(self, rule, rule_path, contexts, attribution):
        """Evaluate one rule under the given parent contexts.  Returns a
        list of ExtractionResults aligned with contexts."""
        rule = self.changed.get(rule_path, rule)
        if not contexts:
            return []
        if not self._apply_contexts(rule, contexts):
            repaired = None
            if rule.adaptation is not None:
                repaired = self._repair(rule, rule_path, contexts, attribution)
            if repaired is not None:
                contexts = repaired
                rule = self.changed.get(rule_path, rule)
            else:
                # salvage the contexts the plan still satisfies
                for c in contexts:
                    if c.matches is None:
                        c.matches, c.status = [], "failed"

        for attempt in (0, 1):
            adapted = any(c.status == "adapted" for c in contexts)
            child_results = {}
            for child in rule.children:
                # fresh contexts per child: evaluating one fills them in
                child_results[child.name] = self._eval(
                    child,
                    rule_path + "/" + child.name,
                    [_Context(p, node, c.page) for c in contexts for p, node in c.matches],
                    self._attr_for(rule, adapted, child),
                )
            if attempt == 1 or not self._needs_parent_refresh(rule, child_results):
                break
            # a child exhausted its own repair and asked for the parent:
            # force a similarity refresh of this rule, then retry children
            if rule.adaptation is None or rule_path in self.forced_parents:
                break
            self.forced_parents.add(rule_path)
            try:
                self._adapt(rule, rule_path, contexts, "bottom_up", force=True)
            except AdaptationFailed:
                break
            rule = self.changed.get(rule_path, rule)

        # per match, in order, its results under each child rule
        kids = list(zip(*(child_results[child.name] for child in rule.children)))
        results = []
        start = 0
        for c in contexts:
            n = len(c.matches)
            results.append(
                ExtractionResult(
                    rule_name=rule.name,
                    matches=tuple([(p, node.text) for p, node in c.matches]),
                    children=tuple(kids[start : start + n]) if rule.children else ((),) * n,
                    status=c.status,
                    page=c.page,
                    locator=c.locator,
                )
            )
            start += n
        return results

    def _attr_for(self, rule, adapted, child):
        """top_down when this rule adapted and cascades to a child that
        can adapt and has not opted out."""
        cfg = child.adaptation
        if (
            adapted
            and "top_down" in rule.adaptation.triggers
            and cfg is not None
            and not cfg.cascade_opt_out
        ):
            return "top_down"
        return "constraint_violation"

    def _needs_parent_refresh(self, rule, child_results) -> bool:
        for child in rule.children:
            results = child_results.get(child.name) or []
            if not results:
                continue
            if all(r.status == "failed" for r in results):
                cfg = child.adaptation
                if cfg is not None and "bottom_up" in cfg.triggers:
                    return True
        return False

    def build_wrapper(self):
        if not self.changed:
            return None
        new = self.wrapper.map_rules(lambda path, rule: self.changed.get(path, rule))
        return replace(new, version=self.wrapper.version + 1)


def execute_wrapper(wrapper: Wrapper, ctx: ExecutionContext, max_cascade_depth: int = 3):
    """Returns (results per root rule, adaptation reports, new wrapper or
    None when nothing changed).  Evaluation starts on the bundle's first
    page."""
    executor = _Executor(wrapper, ctx, max_cascade_depth)
    results = executor.run()
    return results, executor.reports, executor.build_wrapper()
