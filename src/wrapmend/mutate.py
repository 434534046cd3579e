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

from wrapmend.dom import DomNode, DomTree, _P_CLOSERS, _walk

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

    @classmethod
    def from_dict(cls, d: dict) -> "MutationSpec":
        return cls(
            operations=tuple(d.get("operations", OPERATIONS)),
            seed=d.get("seed", 0),
            rate=d.get("rate", 0.1),
        )


class _MNode:
    """Mutable mirror node; uid is the path in the original tree."""

    __slots__ = ("label", "attributes", "text", "children", "parent", "uid")

    def __init__(self, label, attributes, text, uid, parent):
        self.label = label
        self.attributes = dict(attributes)
        self.text = text
        self.children = []
        self.parent = parent
        self.uid = uid


def _mirror(node: DomNode, uid, parent) -> _MNode:
    m = _MNode(node.label, node.attributes, node.text, uid, parent)
    for i, c in enumerate(node.children):
        m.children.append(_mirror(c, uid + (i,), m))
    return m


def _copy_unlabeled(node: _MNode, parent) -> _MNode:
    m = _MNode(node.label, node.attributes, node.text, None, parent)
    for c in node.children:
        m.children.append(_copy_unlabeled(c, m))
    return m


def _attached(node: _MNode, root: _MNode) -> bool:
    while node.parent is not None:
        node = node.parent
    return node is root


def _applicable(op: str, node: _MNode, depth: int) -> bool:
    if op == "rename_attribute" or op == "drop_attribute":
        return bool(node.attributes)
    if op == "insert_wrapper_element":
        return node.parent is not None
    if op == "remove_level":
        if node.parent is None or not node.children:
            return False
        # splicing block children under a p restructures on reparse
        if node.parent.label == "p" and any(
            c.label in _P_CLOSERS for c in node.children
        ):
            return False
        return True
    if op == "reorder_siblings":
        return len(node.children) >= 2
    if op == "duplicate_record":
        return node.parent is not None
    if op == "change_class_value":
        return "class" in node.attributes
    if op == "delete_region":
        return node.parent is not None and depth >= 2
    raise ValueError(op)


def _apply(op: str, node: _MNode, rng: random.Random) -> None:
    parent = node.parent
    if op == "rename_attribute":
        key = rng.choice(sorted(node.attributes))
        value = node.attributes.pop(key)
        node.attributes[key + "-old"] = value
    elif op == "drop_attribute":
        key = rng.choice(sorted(node.attributes))
        del node.attributes[key]
    elif op == "insert_wrapper_element":
        # span nests anywhere without implied-close interference
        wrapper = _MNode("span", {"class": "wrap"}, "", None, parent)
        idx = parent.children.index(node)
        parent.children[idx] = wrapper
        wrapper.children.append(node)
        node.parent = wrapper
    elif op == "remove_level":
        idx = parent.children.index(node)
        parent.children[idx:idx + 1] = node.children
        for c in node.children:
            c.parent = parent
        node.children = []
        node.parent = None
    elif op == "reorder_siblings":
        rng.shuffle(node.children)
    elif op == "duplicate_record":
        copy = _copy_unlabeled(node, parent)
        idx = parent.children.index(node)
        parent.children.insert(idx + 1, copy)
    elif op == "change_class_value":
        node.attributes["class"] = node.attributes["class"] + "-v2"
    elif op == "delete_region":
        parent.children.remove(node)
        node.parent = None
    else:
        raise ValueError(op)


def mutate_tree(tree: DomTree, spec: MutationSpec):
    """Returns (mutated DomTree, truth map original path -> new path | None)."""
    rng = random.Random(spec.seed)
    root = _mirror(tree.root, (), None)

    # selection pass on the pristine mirror, one rate draw per node
    selected = []
    uids = []
    for path, node in _walk(root):
        uids.append(node.uid)
        if rng.random() < spec.rate:
            depth = len(path)
            ops = [op for op in spec.operations if _applicable(op, node, depth)]
            if ops:
                selected.append((node, rng.choice(ops), depth))

    for node, op, depth in selected:
        # earlier operations may have detached this node or changed its shape
        if not _attached(node, root):
            continue
        if not _applicable(op, node, depth):
            continue
        _apply(op, node, rng)

    new_root = _rebuild(root)
    mutated = DomTree(root=new_root, source_id=tree.source_id)

    final = {node.uid: path for path, node in _walk(root) if node.uid is not None}
    truth = {uid: final.get(uid) for uid in uids}
    return mutated, truth


def _rebuild(m: _MNode) -> DomNode:
    return DomNode(
        m.label, dict(m.attributes), m.text, [_rebuild(c) for c in m.children]
    )


def path_to_str(path) -> str:
    return "/".join(str(i) for i in path)


def str_to_path(s: str) -> tuple:
    if not s:
        return ()
    return tuple(int(part) for part in s.split("/"))


def truth_to_jsonable(truth: dict) -> dict:
    return {
        path_to_str(orig): (list(new) if new is not None else None)
        for orig, new in sorted(truth.items())
    }


def truth_from_jsonable(d: dict) -> dict:
    return {
        str_to_path(orig): (tuple(new) if new is not None else None)
        for orig, new in d.items()
    }
