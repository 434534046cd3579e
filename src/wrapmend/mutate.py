"""Seeded structural mutations over parsed pages, with ground truth.

The mutator is the evaluation harness's source of page change: it
applies a configured mix of operations at a given rate, deterministically
per seed, and emits a map from every original element's path to its new
path (or None when the element was deleted).  Evaluation must never
infer ground truth from the system under test, so this map is produced
here, by construction.

Mutated trees are guaranteed to survive a serialize/reparse round trip
unchanged: operations that would trip the parser's implied-close
recovery (e.g. splicing block elements under a p) are skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wrapmend.dom import DomNode, DomTree, _P_CLOSERS, _walk, detach_subtree

OPERATIONS = (
    "rename_attribute",
    "drop_attribute",
    "insert_wrapper_element",
    "remove_level",
    "reorder_siblings",
    "duplicate_record",
    "change_class_value",
    "delete_region",
)


@dataclass(frozen=True)
class MutationSpec:
    operations: tuple = OPERATIONS
    seed: int = 0
    rate: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        for op in self.operations:
            if op not in OPERATIONS:
                raise ValueError("unknown operation %r" % (op,))
        if not self.operations:
            raise ValueError("operations must be non-empty")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate %r outside [0, 1]" % (self.rate,))

    def to_dict(self) -> dict:
        return {
            "operations": list(self.operations),
            "seed": self.seed,
            "rate": self.rate,
        }


def _index(children: list, node: DomNode) -> int:
    # by identity: DomNode equality is structural, and an equal sibling
    # (a duplicated record, say) must not stand in for this node
    for i, c in enumerate(children):
        if c is node:
            return i
    raise ValueError("node is not a child")


def _applicable(op: str, node: DomNode, parent, depth: int) -> bool:
    if op == "rename_attribute" or op == "drop_attribute":
        return bool(node.attributes)
    if op == "insert_wrapper_element":
        return parent is not None
    if op == "remove_level":
        if parent is None or not node.children:
            return False
        # splicing block children under a p restructures on reparse
        if parent.label == "p" and any(c.label in _P_CLOSERS for c in node.children):
            return False
        return True
    if op == "reorder_siblings":
        return len(node.children) >= 2
    if op == "duplicate_record":
        return parent is not None
    if op == "change_class_value":
        return "class" in node.attributes
    if op == "delete_region":
        return parent is not None and depth >= 2
    raise ValueError(op)


def _apply(op: str, node: DomNode, parents: dict, detached: set, rng: random.Random) -> None:
    """Edit the tree in place, keeping `parents` (id -> parent) current and
    adding the id of every node the edit takes out of the tree to
    `detached`.  `node` is attached, so each node is added at most once."""
    parent = parents[id(node)]
    if op == "rename_attribute":
        key = rng.choice(sorted(node.attributes))
        value = node.attributes.pop(key)
        node.attributes[key + "-old"] = value
    elif op == "drop_attribute":
        key = rng.choice(sorted(node.attributes))
        del node.attributes[key]
    elif op == "insert_wrapper_element":
        # span nests anywhere without implied-close interference
        wrapper = DomNode("span", {"class": "wrap"}, "", [node])
        parent.children[_index(parent.children, node)] = wrapper
        parents[id(wrapper)] = parent
        parents[id(node)] = wrapper
    elif op == "remove_level":
        idx = _index(parent.children, node)
        parent.children[idx:idx + 1] = node.children
        for c in node.children:
            parents[id(c)] = parent
        node.children = []
        detached.add(id(node))
    elif op == "reorder_siblings":
        rng.shuffle(node.children)
    elif op == "duplicate_record":
        parent.children.insert(_index(parent.children, node) + 1, detach_subtree(node))
    elif op == "change_class_value":
        node.attributes["class"] = node.attributes["class"] + "-v2"
    elif op == "delete_region":
        del parent.children[_index(parent.children, node)]
        stack = [node]
        while stack:
            gone = stack.pop()
            detached.add(id(gone))
            stack.extend(gone.children)
    else:
        raise ValueError(op)


def mutate_tree(tree: DomTree, spec: MutationSpec):
    """Returns (mutated DomTree, truth map original path -> new path | None).
    The operations edit a detached copy of the page, so the input tree is
    left as it was."""
    rng = random.Random(spec.seed)
    root = detach_subtree(tree.root)
    # every node of the copy, with its original path, in document order.
    # The list keeps them all alive for the whole call, so no id in the
    # maps below can be reused by a node made later.
    originals = list(_walk(root))
    origin = {id(node): path for path, node in originals}
    parents = {id(root): None}
    for _, node in originals:
        for c in node.children:
            parents[id(c)] = node

    # selection pass on the pristine copy, one rate draw per node
    selected = []
    for path, node in originals:
        if rng.random() < spec.rate:
            depth = len(path)
            parent = parents[id(node)]
            ops = [op for op in spec.operations if _applicable(op, node, parent, depth)]
            if ops:
                selected.append((node, rng.choice(ops), depth))

    detached = set()
    for node, op, depth in selected:
        # earlier operations may have detached this node or changed its shape
        if id(node) in detached:
            continue
        if not _applicable(op, node, parents[id(node)], depth):
            continue
        _apply(op, node, parents, detached, rng)

    final = {origin[id(n)]: p for p, n in _walk(root) if id(n) in origin}
    truth = {path: final.get(path) for path, _ in originals}
    return DomTree(root=root, source_id=tree.source_id), truth


def path_to_str(path) -> str:
    return "/".join(str(i) for i in path)


def truth_to_jsonable(truth: dict) -> dict:
    return {
        path_to_str(orig): (list(new) if new is not None else None)
        for orig, new in sorted(truth.items())
    }
