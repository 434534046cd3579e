"""A small XPath dialect: enough to address nodes robustly, small enough
to generate, relax, and reason about mechanically.

Supported: child (/) and descendant (//) axes, name tests with *,
positional predicates [k], attribute equality [@a='v'], attribute
fragments [matches(@a,'regex')], and text equality [text()='v'].
Expressions are absolute or relative (leading ./ or .//, or a bare name).

Position predicates follow XPath proper: with the descendant axis they
apply per parent group, not over the flattened result.

Evaluation carries each node beside its path.  Only a relative
expression's context is resolved from the root, and not even that when
the caller hands apply_plan the context's node; every match is reached
from its parent, and apply_plan hands back (path, node) pairs, so no
caller resolves a match again.  A plan expands its attempts, index
relaxations included, once, on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Optional

from wrapmend.dom import DomNode, DomTree, NodePath, _walk, inside, resolve
from wrapmend.constraints import validate_results


class XPathError(ValueError):
    pass


class PlanExhausted(LookupError):
    """Every locator in a fallback plan failed its constraints."""

    def __init__(self, message, tried=()):
        super().__init__(message)
        self.tried = list(tried)


@dataclass(frozen=True)
class Position:
    index: int  # 1-based, within the step's per-parent candidate group


@dataclass(frozen=True)
class AttrEquals:
    name: str
    value: str

    def holds(self, node) -> bool:
        return node.attributes.get(self.name) == self.value


@dataclass(frozen=True)
class AttrFragment:
    name: str
    pattern: str

    def __post_init__(self):
        # compiled once; not a field, so equality and hashing ignore it
        try:
            object.__setattr__(self, "_regex", re.compile(self.pattern))
        except re.error as exc:
            raise XPathError("bad pattern %r: %s" % (self.pattern, exc))

    def holds(self, node) -> bool:
        value = node.attributes.get(self.name)
        return value is not None and self._regex.search(value) is not None


@dataclass(frozen=True)
class TextEquals:
    value: str

    def holds(self, node) -> bool:
        return node.text == self.value


@dataclass(frozen=True)
class Step:
    axis: str  # "child" or "descendant"
    name: str  # element name or "*"
    predicates: tuple = ()

    def __post_init__(self):
        if self.axis not in ("child", "descendant"):
            raise XPathError("unknown axis %r" % (self.axis,))

    @cached_property
    def split(self) -> tuple:
        """(test, grouped): the predicates before the first Position
        decide each node alone, so they become one test of a node (None
        when there are none); the Position and those after it need the
        node's group.  Built on first use and kept outside the fields."""
        preds = self.predicates
        k = next((k for k, p in enumerate(preds) if isinstance(p, Position)), len(preds))
        holds = [p.holds for p in preds[:k]]
        if len(holds) > 1:
            return (lambda node: all(h(node) for h in holds)), preds[k:]
        return (holds[0] if holds else None), preds[k:]


@dataclass(frozen=True)
class XPathExpr:
    steps: tuple
    absolute: bool = True

    def to_string(self) -> str:
        parts = []
        for i, step in enumerate(self.steps):
            sep = "//" if step.axis == "descendant" else "/"
            if not self.absolute and i == 0:
                sep = ".//" if step.axis == "descendant" else ""
            parts.append(sep + _step_string(step))
        return "".join(parts)

    def __str__(self):
        return self.to_string()


def _quote(value: str) -> str:
    # XPath string literals have no escapes; pick whichever quote is free
    if "'" not in value:
        return "'%s'" % value
    if '"' not in value:
        return '"%s"' % value
    raise XPathError("cannot quote value containing both quote characters: %r" % value)


def _pred_string(pred) -> str:
    if isinstance(pred, Position):
        return "[%d]" % pred.index
    if isinstance(pred, AttrEquals):
        return "[@%s=%s]" % (pred.name, _quote(pred.value))
    if isinstance(pred, AttrFragment):
        return "[matches(@%s,%s)]" % (pred.name, _quote(pred.pattern))
    if isinstance(pred, TextEquals):
        return "[text()=%s]" % _quote(pred.value)
    raise XPathError("unknown predicate %r" % (pred,))


def _step_string(step: Step) -> str:
    return step.name + "".join(_pred_string(p) for p in step.predicates)


# Step names take every name the tokenizer reads (dom._NAME) and more; a
# label outside them, such as one html.parser kept a \v in, is written *
# by _spelled.
_NAME_RE = re.compile(r"[A-Za-z][-.\w:]*|\*")
_ATTR_EQ_RE = re.compile(r"@([A-Za-z][\w-]*)\s*=\s*(['\"])(.*)\2\s*$", re.S)
_MATCHES_RE = re.compile(r"matches\(\s*@([A-Za-z][\w-]*)\s*,\s*(['\"])(.*)\2\s*\)\s*$", re.S)
_TEXT_EQ_RE = re.compile(r"text\(\)\s*=\s*(['\"])(.*)\1\s*$", re.S)


def parse_xpath(text: str) -> XPathExpr:
    s = text.strip()
    if not s:
        raise XPathError("empty expression")
    absolute = False
    i = 0
    if s.startswith("."):
        if not s.startswith("./"):
            raise XPathError("expected ./ or .// in %r" % text)
        i = 1  # keep the slash(es) for axis detection
    elif s.startswith("/"):
        absolute = True
    steps = []
    first = True
    n = len(s)
    while i < n:
        if s.startswith("//", i):
            axis = "descendant"
            i += 2
        elif s.startswith("/", i):
            axis = "child"
            i += 1
        elif first and not absolute:
            axis = "child"
        else:
            raise XPathError("expected step separator at %d in %r" % (i, text))
        first = False
        m = _NAME_RE.match(s, i)
        if not m:
            raise XPathError("expected element name at %d in %r" % (i, text))
        name = m.group(0)
        i = m.end()
        predicates = []
        while i < n and s[i] == "[":
            inner, i = _scan_bracket(s, i, text)
            predicates.append(_parse_predicate(inner, text))
        steps.append(Step(axis=axis, name=name, predicates=tuple(predicates)))
    if not steps:
        raise XPathError("no steps in %r" % text)
    return XPathExpr(steps=tuple(steps), absolute=absolute)


def _scan_bracket(s, i, original):
    """Scan from '[' to its matching ']', honouring quoted strings."""
    j = i + 1
    quote = None
    while j < len(s):
        c = s[j]
        if quote:
            if c == quote:
                quote = None
        elif c in "'\"":
            quote = c
        elif c == "]":
            return s[i + 1:j], j + 1
        j += 1
    raise XPathError("unterminated predicate in %r" % original)


def _parse_predicate(inner: str, original: str):
    inner = inner.strip()
    if inner.isdigit():
        idx = int(inner)
        if idx < 1:
            raise XPathError("positions are 1-based in %r" % original)
        return Position(idx)
    m = _ATTR_EQ_RE.fullmatch(inner)
    if m:
        return AttrEquals(name=m.group(1).lower(), value=m.group(3))
    m = _MATCHES_RE.fullmatch(inner)
    if m:
        return AttrFragment(name=m.group(1).lower(), pattern=m.group(3))
    m = _TEXT_EQ_RE.fullmatch(inner)
    if m:
        return TextEquals(value=m.group(2))
    raise XPathError("unsupported predicate [%s] in %r" % (inner, original))


# --- evaluation --------------------------------------------------------------


def evaluate(expr: XPathExpr, tree: DomTree, context_path: Optional[NodePath] = None) -> list:
    """Paths of all matching nodes, document order, no duplicates."""
    return [p for p, _ in _select(expr, tree, context_path)]


def _select(expr: XPathExpr, tree: DomTree, context_path, context_node=None) -> list:
    """(path, node) of every match, document order, no duplicates.  Only
    the context is resolved from the root, and only when its node is not
    given; every other node is reached from its parent."""
    steps = expr.steps
    if expr.absolute:
        # the document sits above the root: the first step's only group
        # is the root itself, at ()
        first, root = steps[0], tree.root
        named = [0] if first.name in ("*", root.label) else []
        current = [((), root)] if _filtered(first.predicates, [root], named) else []
        if first.axis == "descendant":
            current += _step(first, [((), root)])  # the root sorts first
        steps = steps[1:]
    else:
        path = context_path if type(context_path) is tuple else tuple(context_path or ())
        current = [(path, resolve(tree, path) if context_node is None else context_node)]
    for step in steps:
        if not current:
            break
        current = _step(step, current)
    return current


def _step(step: Step, contexts: list) -> list:
    """The step's matches from contexts in document order.  Each parent's
    children are one group.  The scan keeps the children that pass the
    name test and the predicates before the step's first Position, each
    decided on the node alone; only when the step has a Position does
    _filtered narrow the group with it and the predicates after it.  The
    descendant axis visits every group below a context."""
    name = step.name
    test, grouped = step.split
    any_name = name == "*"
    descend = step.axis == "descendant"
    out = []
    groups = 0  # groups that kept something
    top = None
    for path, node in contexts:
        if descend:
            # a context inside the previous one adds nothing: its groups
            # are that one's groups
            if top is not None and path[: len(top)] == top:
                continue
            top = path
        stack = [(path, node)]
        while stack:
            path, node = stack.pop()
            children = node.children
            kept = []
            i = 0  # counted by hand: enumerate's pair per child costs more here
            for c in children:
                if (any_name or c.label == name) and (test is None or test(c)):
                    kept.append(i)
                if descend and c.children:
                    stack.append((path + (i,), c))
                i += 1
            if kept and grouped:
                kept = _filtered(grouped, children, kept)
            if kept:
                groups += 1
                for i in kept:
                    out.append((path + (i,), children[i]))
    if groups > 1:
        out.sort(key=itemgetter(0))  # groups come out of the stack, not in order
    return out


def _filtered(preds: tuple, group: list, kept: list) -> list:
    """Apply predicates in turn to the indices `kept` of one group, so a
    position counts what the predicates before it left, exactly like
    child:: nodelists."""
    for pred in preds:
        if not kept:
            break
        if isinstance(pred, Position):
            kept = kept[pred.index - 1 : pred.index]
            continue
        # a loop, not a comprehension: on groups of a few nodes the
        # comprehension's own call costs more than the tests
        holds, narrowed = pred.holds, []
        for i in kept:
            if holds(group[i]):
                narrowed.append(i)
        kept = narrowed
    return kept


# --- anchors ------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorPoint:
    path: NodePath
    kind: str  # "unique_id" | "outermost_table"


def detect_anchors(tree: DomTree) -> list:
    """Stable reference points on a page: elements with page-unique ids,
    and tables that are not nested in other tables.  One walk, which
    keeps paths only for id holders and tables."""
    held = []  # (path, id) of every id holder
    id_count: dict = {}
    anchors = []
    table = None  # the last outermost table
    for path, node in _walk(tree.root):
        v = node.attributes.get("id")
        if v:
            held.append((path, v))
            id_count[v] = id_count.get(v, 0) + 1
        # in document order a table nested in an outermost table comes
        # after it and before the next outermost one
        if node.label == "table" and (table is None or path[: len(table)] != table):
            table = path
            anchors.append(AnchorPoint(path=path, kind="outermost_table"))
    anchors += [AnchorPoint(path=p, kind="unique_id") for p, v in held if id_count[v] == 1]
    anchors.sort(key=lambda a: (a.path, a.kind))
    return anchors


# --- fallback plans -----------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    expr: XPathExpr
    tag: str
    priority: int


@dataclass(frozen=True)
class FallbackPlan:
    best: XPathExpr
    best_tag: str = "positional"
    fallbacks: tuple = ()

    @cached_property
    def attempts(self) -> tuple:
        """(tag, expr) in the order apply_plan tries them: the best, then
        each fallback by priority, file order breaking ties, an index
        relaxation as its variants.  Expanded on first use and kept
        outside the fields, so equality ignores it."""
        attempts = [(self.best_tag, self.best)]
        for entry in sorted(self.fallbacks, key=attrgetter("priority")):
            if entry.tag == "index_relaxation":
                attempts += [(entry.tag, v) for v in relaxation_variants(entry.expr)]
            else:
                attempts.append((entry.tag, entry.expr))
        return tuple(attempts)

    def to_dict(self) -> dict:
        return {
            "xpath_best": {"expr": self.best.to_string(), "tag": self.best_tag},
            "xpath_fallbacks": [
                {"expr": e.expr.to_string(), "tag": e.tag, "priority": e.priority}
                for e in self.fallbacks
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FallbackPlan":
        best = d["xpath_best"]
        return cls(
            best=parse_xpath(best["expr"]),
            best_tag=best.get("tag", "positional"),
            fallbacks=tuple(
                PlanEntry(expr=parse_xpath(f["expr"]), tag=f["tag"], priority=f["priority"])
                for f in d.get("xpath_fallbacks", ())
            ),
        )


# priorities: lower tries first; gaps leave room for same-kind entries
PRIO_ID = 10
PRIO_ATTR = 20
PRIO_FRAGMENT = 30
PRIO_STRUCTURAL = 40
PRIO_ANCHOR = 50
PRIO_POSITIONAL = 60
PRIO_RELAX = 61

# attribute equality candidates, in preference order; id handled separately
_ATTR_PREFERENCE = ("class", "name", "title", "href", "src")


def generate_plan(
    tree: DomTree,
    target: NodePath,
    context_path: Optional[NodePath] = None,
    cohort=None,
    anchors=None,
) -> FallbackPlan:
    """Build a prioritized locator plan for one node.

    The plan's best locator is the highest-priority expression that
    matches the target uniquely on this page; everything else generated
    becomes the ordered fallback list.  With a context_path all
    expressions are relative to that node, otherwise absolute.

    A rule that legitimately matches several nodes (a record list) passes
    the full set as `cohort`; locators then must select exactly that set,
    and per-node heuristics (id, trailing index) adjust or drop out.

    `anchors` is detect_anchors(tree), passed by a caller that plans
    several targets on one page; by default the page is walked for them.
    """
    target = tuple(target)
    node = resolve(tree, target)
    relative = context_path is not None
    base = tuple(context_path) if relative else None
    if relative and not inside(target, base):
        raise XPathError("target %r is not inside context %r" % (target, base))
    wanted = sorted(tuple(p) for p in cohort) if cohort else [target]
    if target not in wanted:
        raise XPathError("target must be part of its own cohort")
    single = len(wanted) == 1

    entries = []

    def consider(expr, tag, priority):
        entries.append(PlanEntry(expr=expr, tag=tag, priority=priority))

    def unique(expr):
        return evaluate(expr, tree, base) == wanted

    def descendant_expr(step, *tail):
        return XPathExpr(steps=(step,) + tail, absolute=not relative)

    # 1. unique id
    own_id = node.attributes.get("id", "")
    if single and own_id and _quotable(own_id):
        expr = descendant_expr(
            Step("descendant", "*", (AttrEquals("id", own_id),))
        )
        if unique(expr):
            consider(expr, "id", PRIO_ID)

    # 2. attribute equality; 3. stable fragments of churned values.  A
    # fragment entry is added even when equality holds today: the volatile
    # part of the value is exactly what tends to change under it.
    prio_attr = PRIO_ATTR
    prio_frag = PRIO_FRAGMENT
    for attr in _ATTR_PREFERENCE:
        value = node.attributes.get(attr, "")
        if not value or not _quotable(value):
            continue
        expr = descendant_expr(
            Step("descendant", _spelled(node.label), (AttrEquals(attr, value),))
        )
        if unique(expr):
            consider(expr, "attribute", prio_attr)
            prio_attr += 1
        for pattern in _fragment_patterns(value):
            fexpr = descendant_expr(
                Step("descendant", _spelled(node.label), (AttrFragment(attr, pattern),))
            )
            if unique(fexpr):
                consider(fexpr, "fragment", prio_frag)
                prio_frag += 1
                break

    # 4. structural: the target's positional path with the positions dropped
    tag_path = tuple(Step(s.axis, s.name) for s in _positional_steps(tree, [target], base))
    if tag_path:
        expr = XPathExpr(steps=tag_path, absolute=not relative)
        if unique(expr):
            consider(expr, "structural", PRIO_STRUCTURAL)

    # 5. anchor-relative
    prio_anchor = PRIO_ANCHOR
    for anchor in detect_anchors(tree) if anchors is None else anchors:
        if prio_anchor >= PRIO_POSITIONAL:
            break
        apath = anchor.path
        # an anchor strictly above the target, inside the scope
        if apath == target or not inside(target, apath) or not inside(apath, base):
            continue
        if anchor.kind == "unique_id":
            anchor_id = resolve(tree, apath).attributes["id"]
            if not _quotable(anchor_id):
                continue
            head = Step("descendant", "*", (AttrEquals("id", anchor_id),))
        else:
            head = Step("descendant", "table")
        tail = _cohort_tail(tree, apath, wanted)
        if tail is None:
            continue
        expr = XPathExpr(steps=(head,) + tail, absolute=not relative)
        if unique(expr):
            consider(expr, "anchor", prio_anchor)
            prio_anchor += 1

    # 6. the full positional path; for a single target it is unique by
    #    construction, and it seeds index relaxation at apply time
    pos_steps = _positional_steps(tree, wanted, base)
    if pos_steps:
        pos_expr = XPathExpr(steps=pos_steps, absolute=not relative)
        if unique(pos_expr):
            consider(pos_expr, "positional", PRIO_POSITIONAL)
            if any(isinstance(p, Position) for s in pos_steps for p in s.predicates):
                consider(pos_expr, "index_relaxation", PRIO_RELAX)

    if not entries:
        # target is the scope root itself: positional path is empty
        if target == (base or ()):
            raise XPathError("cannot build a plan for the scope root itself")
        raise XPathError("no unique locator found for %r" % (target,))
    # every entry was checked unique when considered
    entries.sort(key=lambda e: e.priority)
    best = entries[0]
    return FallbackPlan(best=best.expr, best_tag=best.tag, fallbacks=tuple(entries[1:]))


def _quotable(value: str) -> bool:
    return "'" not in value or '"' not in value


def _fragment_patterns(value: str):
    """Stable prefix/suffix regexes for a churned attribute value, longest
    first.  A fragment must be at least 3 chars and a proper substring."""
    out = []
    m = re.match(r"[A-Za-z][A-Za-z_-]{2,}", value)
    if m and len(m.group(0)) < len(value):
        out.append("^" + re.escape(m.group(0)))
    m = re.search(r"[A-Za-z][A-Za-z_-]{2,}$", value)
    if m and len(m.group(0)) < len(value):
        out.append(re.escape(m.group(0)) + "$")
    return out


def _spelled(label: str) -> str:
    """The label as a step name: itself, or * when the grammar cannot spell it."""
    return label if _NAME_RE.fullmatch(label) else "*"


def _position_of(parent_node, index, name) -> Optional[int]:
    """1-based position of child `index` among the siblings a step named
    `name` selects (all of them for *), or None when it selects only that
    child (no index needed)."""
    same = [
        i for i, c in enumerate(parent_node.children) if name == "*" or c.label == name
    ]
    if len(same) == 1:
        return None
    return same.index(index) + 1


def _steps_between(tree, top: NodePath, target: NodePath):
    """Child steps from `top` (exclusive) down to target, indexed where a
    label repeats among siblings."""
    steps = []
    node = resolve(tree, top)
    for depth in range(len(top), len(target)):
        idx = target[depth]
        child = node.children[idx]
        name = _spelled(child.label)
        pos = _position_of(node, idx, name)
        preds = (Position(pos),) if pos is not None else ()
        steps.append(Step("child", name, preds))
        node = child
    return tuple(steps)


def _cohort_tail(tree, top: NodePath, wanted):
    """Indexed child steps from `top` down to the cohort.  A single target
    gets a fully indexed path; a multi-node cohort must be same-label
    children of one parent and gets an index-free final step (None when
    that shape does not hold)."""
    if len(wanted) == 1:
        target = wanted[0]
        if not inside(target, top):
            return None
        return _steps_between(tree, top, target)
    parents = {p[:-1] for p in wanted}
    if len(parents) != 1 or any(not p for p in wanted):
        return None
    parent = parents.pop()
    if not inside(parent, top):
        return None
    labels = {resolve(tree, p).label for p in wanted}
    if len(labels) != 1:
        return None
    return _steps_between(tree, top, parent) + (Step("child", _spelled(labels.pop())),)


def _positional_steps(tree, wanted, base):
    if base is None:
        tail = _cohort_tail(tree, (), wanted)
        if tail is None:
            return None
        return (Step("child", _spelled(tree.root.label)),) + tail
    return _cohort_tail(tree, base, wanted)


# --- plan application ---------------------------------------------------------


def relaxation_variants(expr: XPathExpr):
    """Progressively index-free copies of an expression: each variant drops
    one more Position predicate, rightmost first.  Result sets widen
    monotonically because positions only ever filter."""
    positions = [
        (si, pi)
        for si, step in enumerate(expr.steps)
        for pi, pred in enumerate(step.predicates)
        if isinstance(pred, Position)
    ]
    variants = []
    for k in range(1, len(positions) + 1):
        dropped = set(positions[len(positions) - k:])
        steps = []
        for si, step in enumerate(expr.steps):
            preds = tuple(
                p for pi, p in enumerate(step.predicates) if (si, pi) not in dropped
            )
            steps.append(Step(step.axis, step.name, preds))
        variants.append(XPathExpr(steps=tuple(steps), absolute=expr.absolute))
    return variants


def apply_plan(
    plan: FallbackPlan,
    tree: DomTree,
    constraints=(),
    context_path: Optional[NodePath] = None,
    context_node: Optional[DomNode] = None,
):
    """Try the best locator, then each fallback in priority order, until one
    yields results satisfying the constraints.  context_node, when given,
    is the node at context_path on this tree, so no locator resolves it
    again; a node found on another page gives wrong matches.

    Returns (matches, used_tag), where matches are (path, node) pairs in
    document order.  `constraints` may be one constraint or a list; with
    no constraints at all, any non-empty result is accepted.  Raises
    PlanExhausted when every locator fails.
    """
    if constraints and not isinstance(constraints, (list, tuple)):
        constraints = [constraints]
    for tag, expr in plan.attempts:
        matches = _select(expr, tree, context_path, context_node)
        if constraints:
            if not validate_results([(p, n.text) for p, n in matches], constraints):
                return matches, tag
        elif matches:
            return matches, tag
    # every locator failed; they are stringified only for the error
    tried = [(tag, expr.to_string()) for tag, expr in plan.attempts]
    raise PlanExhausted("no locator satisfied the constraints", tried=tried)
