"""The tree-matching dynamic program, and scoring one stored subtree
against every candidate of a page.

Both algorithms are Yang's simple tree matching (1991): the best order-
and ancestry-preserving mapping between two trees is the best alignment of
their children's sequences, each aligned pair scored by the same program
one level down.  One program, `_match`, computes both: simple, it counts
mapped nodes; weighted, it divides each child pair's score by the larger
of the two sibling counts, so identical trees score exactly 1.0.

Template alignment in `wrapmend.template` runs the weighted program on
templates, keyed by their label strings, so templates align with the same
program too.

Scored pairs are not cached: on trees a (stored node, page node) pair is
reached only from its parents' pair, so each is scored once per call.
"""

from __future__ import annotations

from operator import attrgetter

from wrapmend.dom import DomNode, DomTree, _walk, subtree_size

HAVE_NUMBA = False
"""Always False: nothing is compiled; the benchmark still stamps it."""


def jit_enabled() -> bool:
    """Always False: scoring has one pure-Python path; the benchmark still stamps it."""
    return False


_label = attrgetter("label")


def _key_function(labeler):
    """labeler.key, or the bare element name when the other two key
    components are disabled: they are then always empty, and the programs
    below only compare keys for equality."""
    if labeler.use_id_attribute or labeler.use_class_attribute:
        return labeler.key
    return _label


# The program fills the alignment table of a's children (rows) against
# b's children (columns).  A cell is max(left, up, diagonal + pair score),
# and the pair score is 0 unless the two children's keys are equal, so
# only key-equal pairs are scored, and a pair with a leaf is scored without
# a call: it maps just the two children.  Rows never decrease, so for a
# mismatched pair max(left, up) is already the cell's value, and a child
# with no key-equal partner leaves the row as it was.  One row is
# overwritten in place, left to right; `upleft` keeps the previous row's
# value of the cell just overwritten, the diagonal's base.  Every cell
# holds the same number, to the bit, as the full recurrence: max picks
# among the same values, and each diagonal is the same sum.
#
# Weighted, each pair's score is divided by the larger sibling count
# (`denom`) and the roots' own match is not counted; simple, `denom` is 1
# and the roots add 1.  Either way a childless side scores 1.


def _match(a, b, key, weighted: bool) -> float:
    """The score of a and b compared as roots: 0 unless their keys agree."""
    if key(a) != key(b):
        return 0.0
    return _match_eq(a, b, key, weighted)


def _match_eq(a, b, key, weighted: bool) -> float:
    ac, bc = a.children, b.children
    m, n = len(ac), len(bc)
    if m == 0 or n == 0:
        return 1.0
    denom = float(max(m, n)) if weighted else 1.0
    unit = 1.0 / denom
    keys_b = list(map(key, bc))
    row = [0.0] * (n + 1)
    for ca in ac:
        ka = key(ca)
        if ka not in keys_b:
            continue
        deep = ca.children
        left = upleft = 0.0
        for j, kb in enumerate(keys_b, 1):
            up = row[j]
            best = left if left > up else up
            if kb == ka:
                cb = bc[j - 1]
                if deep and cb.children:
                    diag = upleft + _match_eq(ca, cb, key, weighted) / denom
                else:
                    diag = upleft + unit
                if diag > best:
                    best = diag
            upleft = up
            row[j] = left = best
    return row[n] if weighted else 1.0 + row[n]


def score_against_page(stored: DomNode, page: DomTree, labeler, algorithm: str) -> list:
    """(path, score) for every page node whose label matches the stored
    root's label.  Weighted scores are the sibling-weighted similarity;
    simple scores are normalized match counts, 2*STM / (|a| + |b|).
    Document order."""
    # _key_function keeps every key component the labeler compares, so
    # equal program keys are equal full keys
    program_key = _key_function(labeler)
    key = program_key(stored)
    walk = list(_walk(page.root))
    if algorithm == "weighted":
        return [
            (path, _match_eq(stored, node, program_key, True))
            for path, node in walk
            if program_key(node) == key
        ]
    # subtree sizes of the whole page in one pass: children precede their
    # parent in reverse document order
    sizes: dict = {}
    for _, node in reversed(walk):
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node.children)
    size_a = subtree_size(stored)
    return [
        (path, 2.0 * _match_eq(stored, node, program_key, False) / (size_a + sizes[id(node)]))
        for path, node in walk
        if program_key(node) == key
    ]
