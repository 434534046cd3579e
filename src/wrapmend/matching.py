"""Tree similarity for wrapper repair.

Two algorithms over element trees, both Yang's simple tree matching with
labels compared through a `Labeler`, and both computed by one program,
`kernels._match`, which differs between them only in how a matched pair
is weighted:

* simple_tree_matching: counts the nodes of the largest order- and
  ancestry-preserving mapping between two trees (label-equal pairs only).
  normalized_stm scales the count to [0, 1] as 2*STM / (|a| + |b|).

* weighted_tree_matching: the same alignment, but every matched node
  contributes 1/max(t', t'') where t', t'' are the sibling counts of the
  compared nodes in their respective trees.  A node's weight is thereby
  shared across its sibling group, which makes the final score relative:
  identical trees score exactly 1.0, and local changes discount the score
  in proportion to the size of the region they disturb rather than the
  raw node count.

The program lives in `wrapmend.kernels`, where template alignment calls
it too; best_matches ranks a page's candidates with
`kernels.score_against_page`.
"""

from __future__ import annotations

from dataclasses import dataclass

from wrapmend import kernels
from wrapmend.dom import DomNode, DomTree, NodePath, _walk, subtree_size
from wrapmend.kernels import _key_function, _match


@dataclass(frozen=True)
class Labeler:
    """Controls what counts as a node's label during matching.

    Components are compared in fixed order (element name, id attribute,
    class attribute); disabled or missing components contribute an empty
    segment, so enabling a flag only ever splits label classes further.
    """

    use_element_name: bool = True
    use_id_attribute: bool = False
    use_class_attribute: bool = False

    def __post_init__(self):
        if not (self.use_element_name or self.use_id_attribute or self.use_class_attribute):
            raise ValueError("at least one label component must be enabled")

    def key(self, node: DomNode) -> tuple:
        return (
            node.label if self.use_element_name else "",
            node.attributes.get("id", "") if self.use_id_attribute else "",
            node.attributes.get("class", "") if self.use_class_attribute else "",
        )

    def label_string(self, node: DomNode) -> str:
        return "|".join(self.key(node))

    def to_dict(self) -> dict:
        return {
            "element_name": self.use_element_name,
            "id_attribute": self.use_id_attribute,
            "class_attribute": self.use_class_attribute,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Labeler":
        return cls(
            use_element_name=d.get("element_name", True),
            use_id_attribute=d.get("id_attribute", False),
            use_class_attribute=d.get("class_attribute", False),
        )


DEFAULT_LABELER = Labeler()


def labeled_shape(node: DomNode, labeler: Labeler) -> tuple:
    """A subtree's labeled shape: each node's key and child count, in
    document order.  The key is the one the matching kernels compare,
    which tells labels apart at least as finely as the labeler's label
    strings.  So subtrees of one shape score alike against any page, and
    a template accepts both or neither, whatever their text and other
    attributes."""
    key = _key_function(labeler)
    # a list first: tuple() of a generator grows by reallocation, which
    # fragments the heap (about 1 MB more peak RSS over a drift pass)
    return tuple([x for _, n in _walk(node) for x in (key(n), len(n.children))])


@dataclass(frozen=True)
class RankedCandidate:
    path: NodePath
    score: float
    rank: int = 0


def simple_tree_matching(a: DomNode, b: DomNode, labeler: Labeler = DEFAULT_LABELER) -> int:
    """Size of the largest top-down order-preserving mapping, roots included."""
    return int(_match(a, b, _key_function(labeler), False))


def weighted_tree_matching(a: DomNode, b: DomNode, labeler: Labeler = DEFAULT_LABELER) -> float:
    """Sibling-weighted similarity in [0, 1].

    The two arguments are compared as roots of their own trees, so the
    score does not depend on where either subtree sat in its source page;
    sibling counts weight the recursion below the roots.
    """
    return _match(a, b, _key_function(labeler), True)


def normalized_stm(a: DomNode, b: DomNode, labeler: Labeler = DEFAULT_LABELER) -> float:
    """Simple matching scaled to [0, 1]: 2*STM / (|a| + |b|).

    Gives the simple algorithm a score comparable against thresholds and
    min_score, which are defined on the unit interval.
    """
    return 2.0 * _match(a, b, _key_function(labeler), False) / (
        subtree_size(a) + subtree_size(b)
    )


def best_matches(
    stored: DomNode,
    page: DomTree,
    labeler: Labeler = DEFAULT_LABELER,
    algorithm: str = "weighted",
    min_score: float = 0.0,
) -> list:
    """Score the stored subtree against every same-label subtree of the page.

    Returns RankedCandidates sorted by score descending, ties broken by
    document order, ranks starting at 1.  Scores are weighted_tree_matching
    values or normalized_stm values depending on `algorithm`; both live in
    [0, 1], so min_score > 1 yields an empty list.
    """
    if algorithm not in ("simple", "weighted"):
        raise ValueError("unknown algorithm %r" % (algorithm,))
    # through the module attribute, so a caller that rebinds
    # kernels.score_against_page (the benchmark's tracer) sees every call
    scored = kernels.score_against_page(stored, page, labeler, algorithm)
    picked = [(path, score) for path, score in scored if score >= min_score]
    picked.sort(key=lambda it: (-it[1], it[0]))
    return [RankedCandidate(path=p, score=s, rank=i + 1) for i, (p, s) in enumerate(picked)]
