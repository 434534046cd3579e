"""Tree templates: what a rule has learned about the shape of its data.

A template is a labeled tree whose nodes carry occurrence markers
(exactly_one, optional, one_or_more, zero_or_more) and an optional
depth_optional flag meaning the whole level may be absent, with the
node's children spliced into its place.

Templates are built by generalizing the stored example against adapted
matches, and refined as more matches accumulate.  Generalization only
ever widens: every tree a template accepted before a refinement is still
accepted after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from wrapmend.dom import DomNode, DomTree, _walk
from wrapmend.kernels import _label, _match
from wrapmend.matching import DEFAULT_LABELER, Labeler

EXACTLY_ONE = "exactly_one"
OPTIONAL = "optional"
ONE_OR_MORE = "one_or_more"
ZERO_OR_MORE = "zero_or_more"

OCCURRENCES = (EXACTLY_ONE, OPTIONAL, ONE_OR_MORE, ZERO_OR_MORE)

# occurrence -> (min, max); None is unbounded
_RANGES = {
    EXACTLY_ONE: (1, 1),
    OPTIONAL: (0, 1),
    ONE_OR_MORE: (1, None),
    ZERO_OR_MORE: (0, None),
}


class GeneralizeError(ValueError):
    pass


def _cover(lo: int, hi) -> str:
    """Smallest occurrence whose range covers [lo, hi]."""
    if lo >= 1:
        return EXACTLY_ONE if hi == 1 else ONE_OR_MORE
    return OPTIONAL if hi == 1 else ZERO_OR_MORE


def _add(r1, r2):
    lo = r1[0] + r2[0]
    hi = None if r1[1] is None or r2[1] is None else r1[1] + r2[1]
    return (lo, hi)


def _union(r1, r2):
    """Smallest range covering both."""
    hi = None if r1[1] is None or r2[1] is None else max(r1[1], r2[1])
    return (min(r1[0], r2[0]), hi)


@dataclass(frozen=True)
class TreeTemplate:
    label: str
    occurrence: str = EXACTLY_ONE
    depth_optional: bool = False
    children: tuple = ()

    def __post_init__(self):
        if self.occurrence not in _RANGES:
            raise ValueError("unknown occurrence %r" % (self.occurrence,))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "occurrence": self.occurrence,
            "depth_optional": self.depth_optional,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeTemplate":
        return cls(
            label=d["label"],
            occurrence=d.get("occurrence", EXACTLY_ONE),
            depth_optional=d.get("depth_optional", False),
            children=tuple(cls.from_dict(c) for c in d.get("children", ())),
        )


def levels(t: TreeTemplate) -> int:
    """How many levels the template spans, its root's included; counted
    level by level, without recursion."""
    count, level = 0, [t]
    while level:
        count += 1
        level = [c for node in level for c in node.children]
    return count


def template_from_tree(node: DomNode, labeler: Labeler = DEFAULT_LABELER) -> TreeTemplate:
    """The trivial template: this exact shape, everything exactly once."""
    return TreeTemplate(
        label=labeler.label_string(node),
        children=tuple(template_from_tree(c, labeler) for c in node.children),
    )


def _align(p_children, q_children):
    """DP alignment of two template sequences.  Returns events in order:
    ("pair", i, j), ("p", i), ("q", j)."""
    m, n = len(p_children), len(q_children)
    W = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            W[i][j] = _match(p_children[i], q_children[j], _label, True)
    M = [[0.0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            M[i][j] = max(M[i][j - 1], M[i - 1][j], M[i - 1][j - 1] + W[i - 1][j - 1])
    events = []
    i, j = m, n
    # backward walk; q-moves preferred so that, reversed, gap regions list
    # the first argument's children before the second's
    while i > 0 and j > 0:
        if W[i - 1][j - 1] > 0 and M[i][j] == M[i - 1][j - 1] + W[i - 1][j - 1]:
            events.append(("pair", i - 1, j - 1))
            i -= 1
            j -= 1
        elif M[i][j] == M[i][j - 1]:
            events.append(("q", j - 1))
            j -= 1
        else:
            events.append(("p", i - 1))
            i -= 1
    while i > 0:
        events.append(("p", i - 1))
        i -= 1
    while j > 0:
        events.append(("q", j - 1))
        j -= 1
    events.reverse()
    return events


@dataclass
class _Entry:
    template: TreeTemplate
    p_range: tuple
    q_range: tuple
    aligned: bool


def _merge(p: TreeTemplate, q: TreeTemplate) -> TreeTemplate:
    if p.label != q.label:
        raise GeneralizeError("cannot merge %r with %r" % (p.label, q.label))
    events = _align(p.children, q.children)
    events = _absorb_depth_gaps(events, p.children, q.children)
    entries = []
    for ev in events:
        kind = ev[0]
        if kind == "pair":
            _, i, j = ev
            entries.append(
                _Entry(
                    template=_merge(p.children[i], q.children[j]),
                    p_range=_RANGES[p.children[i].occurrence],
                    q_range=_RANGES[q.children[j].occurrence],
                    aligned=True,
                )
            )
        elif kind == "p":
            child = p.children[ev[1]]
            entries.append(
                _Entry(child, _RANGES[child.occurrence], (0, 0), aligned=False)
            )
        elif kind == "q":
            child = q.children[ev[1]]
            entries.append(
                _Entry(child, (0, 0), _RANGES[child.occurrence], aligned=False)
            )
        else:  # depth-optional bridge built by _absorb_depth_gaps
            entries.append(ev[1])
    children = tuple(_collapse_runs(entries))
    return TreeTemplate(
        label=p.label,
        occurrence=_cover(*_union(_RANGES[p.occurrence], _RANGES[q.occurrence])),
        depth_optional=p.depth_optional or q.depth_optional,
        children=children,
    )


def _absorb_depth_gaps(events, p_children, q_children):
    """Bridge adjacent unmatched opposites differing by one wrapper level:
    a node with a single child compatible with the opposite node becomes a
    depth_optional template over the merged pair."""
    out = []
    i = 0
    while i < len(events):
        ev = events[i]
        nxt = events[i + 1] if i + 1 < len(events) else None
        bridged = None
        if nxt is not None and {ev[0], nxt[0]} == {"p", "q"}:
            pc = p_children[ev[1]] if ev[0] == "p" else p_children[nxt[1]]
            qc = q_children[ev[1]] if ev[0] == "q" else q_children[nxt[1]]
            bridged = _bridge(pc, qc)
        if bridged is not None:
            out.append(("bridge", bridged))
            i += 2
        else:
            out.append(ev)
            i += 1
    return out


def _bridge(pc: TreeTemplate, qc: TreeTemplate):
    """One extra level on either side: wrapper(x) vs x."""
    for outer, other in ((pc, qc), (qc, pc)):
        if len(outer.children) == 1 and _match(outer.children[0], other, _label, True) > 0:
            return _Entry(
                template=TreeTemplate(
                    label=outer.label,
                    occurrence=outer.occurrence,
                    depth_optional=True,
                    children=(_merge(outer.children[0], other),),
                ),
                p_range=_RANGES[pc.occurrence],
                q_range=_RANGES[qc.occurrence],
                aligned=True,
            )
    return None


def _collapse_runs(entries):
    """Collapse maximal runs of same-label entries that evidence repetition
    (two aligned members, or either side counting past one) into a single
    repeated pattern; widen survivors individually."""
    out = []
    i = 0
    while i < len(entries):
        j = i
        while (
            j + 1 < len(entries)
            and entries[j + 1].template.label == entries[i].template.label
        ):
            j += 1
        run = entries[i:j + 1]
        p_range = (0, 0)
        q_range = (0, 0)
        for e in run:
            p_range = _add(p_range, e.p_range)
            q_range = _add(q_range, e.q_range)
        if len(run) >= 2 and _run_repeats(run, p_range, q_range):
            merged = run[0].template
            for e in run[1:]:
                merged = _merge(merged, e.template)
            out.append(replace(merged, occurrence=_cover(*_union(p_range, q_range))))
        else:
            for e in run:
                occurrence = _cover(*_union(e.p_range, e.q_range))
                out.append(replace(e.template, occurrence=occurrence))
        i = j + 1
    return out


def _run_repeats(run, p_range, q_range) -> bool:
    aligned = sum(1 for e in run if e.aligned)
    if aligned >= 2:
        return True
    # either side counting past one across the run is repetition evidence
    for hi in (p_range[1], q_range[1]):
        if hi is None or hi >= 2:
            return True
    return False


def generalize(
    stored: DomNode, matched: DomNode, labeler: Labeler = DEFAULT_LABELER
) -> TreeTemplate:
    """First template for a rule: stored example merged with one match."""
    t_stored = template_from_tree(stored, labeler)
    t_matched = template_from_tree(matched, labeler)
    if t_stored.label != t_matched.label:
        raise GeneralizeError(
            "root labels differ: %r vs %r" % (t_stored.label, t_matched.label)
        )
    return _merge(t_stored, t_matched)


def refine(
    template: TreeTemplate, tree: DomNode, labeler: Labeler = DEFAULT_LABELER
) -> TreeTemplate:
    """Fold one more example into a template.  Widening only: anything the
    template accepted before is still accepted.  Returns the template
    object unchanged when it already accepts the example; only a merge
    builds the example's own template."""
    label = labeler.label_string(tree)
    if template.label != label:
        raise GeneralizeError("root labels differ: %r vs %r" % (template.label, label))
    if _accepts(template, tree, labeler):
        return template
    return _merge(template, template_from_tree(tree, labeler))


def template_match(
    template: TreeTemplate, tree, labeler: Labeler = DEFAULT_LABELER
) -> list:
    """Paths of all nodes the template accepts, document order."""
    root = tree.root if isinstance(tree, DomTree) else tree
    return [path for path, node in _walk(root) if _accepts(template, node, labeler)]


def _accepts(t: TreeTemplate, node: DomNode, labeler: Labeler) -> bool:
    if t.label != "*" and t.label != labeler.label_string(node):
        return False
    return len(node.children) in _seq_ends(t.children, node.children, 0, labeler)


def _seq_ends(patterns, nodes, start: int, labeler) -> set:
    """Positions reachable from `start` after consuming every pattern."""
    positions = {start}
    for p in patterns:
        positions = _pattern_ends(p, nodes, positions, labeler)
        if not positions:
            break
    return positions


def _pattern_ends(p: TreeTemplate, nodes, starts, labeler) -> set:
    lo, hi = _RANGES[p.occurrence]
    one = set()
    for pos in starts:
        one |= _instance_ends(p, nodes, pos, labeler)
    if hi == 1:
        return (set(starts) | one) if lo == 0 else one
    # unbounded: close over repeated instances
    reach = set(one)
    frontier = set(one)
    while frontier:
        nxt = set()
        for pos in frontier:
            nxt |= _instance_ends(p, nodes, pos, labeler)
        frontier = nxt - reach
        reach |= frontier
    return (set(starts) | reach) if lo == 0 else reach


def _instance_ends(p: TreeTemplate, nodes, pos: int, labeler) -> set:
    """One instance of p: a matching node, or (level skipped) its children
    matched inline.  Each instance chooses its form independently."""
    ends = set()
    if pos < len(nodes) and _accepts(p, nodes[pos], labeler):
        ends.add(pos + 1)
    if p.depth_optional:
        ends |= _seq_ends(p.children, nodes, pos, labeler)
    return ends
