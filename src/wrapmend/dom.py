"""Lenient HTML parsing into an element tree, plus a canonical serialization.

The parser is deliberately forgiving: real pages close tags implicitly,
interleave them wrongly, or stop mid-element, and a wrapper engine has to
produce *some* stable tree for all of them.  Recovery follows the common
browser conventions (void elements, implied end tags, synthesized html
root) without attempting full spec-grade tree construction.

Markup is read by a fast loop while it stays inside a strict subset: text
without "<", start tags whose attributes are all name="value" (no "<" in
the value), and end tags.  That covers what serialize writes, script and
style aside, and what corpus.generate_page writes.  No token of the
subset holds "<", so the loop splits the source once at "<": each piece
is one tag and the text up to the next tag.  A listing repeats whole
pieces hundreds of times (end tags, container tags, repeated values),
and pages of one site share them, so the loop memoizes each whole piece
as its token and collapsed text: a hit builds its node without reading
anything.  A piece it has not seen is looked up as its tag alone (the
piece up to its first ">"), so each distinct tag text is read once with
the _TAG regex.  Tag and piece entries share one memo, one bound and
one clear, and live across pages; a value holding ">" is never
memoized.  From the first piece outside the subset, or from a script or
style start tag, html.parser reads the rest of the page.

The loop inlines the tree-building rules of the handlers that
html.parser calls, so the two must build the same tree.  The
differential test against html.parser alone (tests/test_dom.py,
TestTokenizer) is the gate for that.

Only elements become nodes.  Text is attached to its owning element with
runs of whitespace collapsed, so that parse -> serialize -> parse is a
fixed point even though the serializer indents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import unescape
from html.parser import HTMLParser
from typing import Iterator, Optional

NodePath = tuple  # tuple[int, ...]; element-child indices from the root, () is the root


class ParseError(ValueError):
    pass


class PathError(LookupError):
    """A NodePath does not resolve inside the tree it was applied to."""


VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# Raw-text elements: their content is not markup and html.parser will not
# decode entities inside them on a re-parse, so we drop it rather than emit
# text that cannot round-trip.  Extraction never targets script or CSS.
RAWTEXT_ELEMENTS = frozenset({"script", "style"})

# Start tags that implicitly close an open <p>.
_P_CLOSERS = frozenset(
    "address article aside blockquote details div dl fieldset figcaption "
    "figure footer form h1 h2 h3 h4 h5 h6 header hr main menu nav ol p pre "
    "section table ul".split()
)

# CLOSES_ON_START[tag] = labels popped from the open stack (repeatedly, while
# on top) when <tag> starts.  Mirrors the usual implied-end-tag rules.
CLOSES_ON_START: dict = {
    "li": {"li", "p"},
    "dt": {"dt", "dd", "p"},
    "dd": {"dt", "dd", "p"},
    "tr": {"tr", "td", "th", "p"},
    "td": {"td", "th", "p"},
    "th": {"td", "th", "p"},
    "tbody": {"tbody", "thead", "tfoot", "tr", "td", "th", "p"},
    "thead": {"tbody", "thead", "tfoot", "tr", "td", "th", "p"},
    "tfoot": {"tbody", "thead", "tfoot", "tr", "td", "th", "p"},
    "option": {"option"},
    "optgroup": {"option", "optgroup"},
}
for _tag in _P_CLOSERS:
    CLOSES_ON_START.setdefault(_tag, set()).add("p")


# The tokenizer's subset.  Names take the characters of html.parser's
# end-tag pattern.  Whitespace is the five characters html.parser ends a
# tag name on: \s would also take \v and Unicode spaces, which html.parser
# reads as part of the name.  _TAG reads one piece of the source split at
# "<", from just after the "<".
_WS = r"[ \t\n\r\f]"
_NAME = "[a-zA-Z][-.a-zA-Z0-9:_]*"
_TAG = re.compile(
    '(%s)((?:%s+%s="[^"<]*")*)%s*(/?)>'  # 1: start tag, 2: attributes, 3: "/"
    "|/(%s)%s*>" % (_NAME, _WS, _NAME, _WS, _NAME, _WS)  # 4: end tag
)
_ATTR = re.compile('%s+(%s)="([^"<]*)"' % (_WS, _NAME))


def _token(m):
    """A _TAG match as the builder applies it: (end tag?, name, attributes,
    closers, opens?), names lowercased and values unescaped as from
    html.parser.  A start tag opens an element unless it is void or ends
    in "/>".  None for a raw-text start tag."""
    name, attrs, slash, end_name = m.groups()
    if end_name:
        return True, end_name.lower(), None, None, False
    tag = name.lower()
    if tag in RAWTEXT_ELEMENTS:
        return None
    attributes = {}
    for n, v in _ATTR.findall(attrs):
        attributes.setdefault(n.lower(), unescape(v))  # first occurrence wins
    opens = not slash and tag not in VOID_ELEMENTS
    return False, tag, attributes, CLOSES_ON_START.get(tag), opens


def _collapse_ws(s: str) -> str:
    return " ".join(s.split())


def _segment(text: str) -> str:
    """Source text as a node keeps it: entities decoded, whitespace runs
    collapsed.  Whitespace-only text collapses to nothing: str.split and
    str.isspace agree on what whitespace is."""
    if not text or text.isspace():
        return ""
    if "&" in text:
        text = unescape(text)
    return _collapse_ws(text)


# The parse memo, shared by every parse: a whole piece (a tag text, its
# ">" and the text up to the next "<") maps to _token(m) plus the text's
# _segment.  A piece missing from it is looked up again cut after its
# first ">", as the same tag with no text, so each distinct tag text is
# read once.  An entry is never changed (each node copies its attributes
# dict), so a hit builds what a fresh read would.  Cleared before a parse
# once past _TOKEN_MEMO_SIZE entries, so pages of many sites cannot grow
# it without bound.
_token_memo: dict = {}
_TOKEN_MEMO_SIZE = 4096


class DomNode:
    """One element.  A node does not know where it sits: its position is
    the NodePath passed beside it.  Equality is structural (label,
    attributes, text, children), so a detached copy of a subtree compares
    equal to the original."""

    # slotted: a page builds one node per element
    __slots__ = ("label", "attributes", "text", "children")

    def __init__(
        self,
        label: str,
        attributes: Optional[dict] = None,
        text: str = "",
        children: Optional[list] = None,
    ):
        self.label = label
        self.attributes = {} if attributes is None else attributes
        self.text = text
        self.children = [] if children is None else children

    def __eq__(self, other):
        if not isinstance(other, DomNode):
            return NotImplemented
        # pairwise over both walks: equal child counts at every node keep
        # the walks in step, and no depth reaches the recursion limit
        for (_, a), (_, b) in zip(_walk(self), _walk(other)):
            if (
                a.label != b.label
                or a.attributes != b.attributes
                or a.text != b.text
                or len(a.children) != len(b.children)
            ):
                return False
        return True

    # nodes are mutable, so they hash by identity even though they compare
    # by structure
    __hash__ = object.__hash__

    def __repr__(self):
        return "DomNode(%r, attrs=%r, text=%r, %d children)" % (
            self.label,
            self.attributes,
            self.text,
            len(self.children),
        )


@dataclass
class DomTree:
    root: DomNode
    source_id: str = ""
    node_count: int = 0  # parse_html passes the builder's count

    def __post_init__(self):
        if self.node_count == 0:
            self.node_count = subtree_size(self.root)

    def __eq__(self, other):
        if not isinstance(other, DomTree):
            return NotImplemented
        return self.root == other.root


class _TreeBuilder(HTMLParser):
    """Builds the tree from tokens.  `parse` reads what it can itself and
    leaves the rest to html.parser, which calls the handlers with tag and
    attribute names lowercased.  `parse` applies the handlers' rules
    inline, so a change to one is a change to both."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        # sentinel collects top-level content; resolved in finish()
        self.sentinel = DomNode("#document")
        self.stack = [self.sentinel]
        self.count = 0  # elements created; each ends up in the tree

    def parse(self, source: str) -> None:
        """Read a whole document and close it."""
        pieces = source.split("<")
        stack = self.stack
        push, pop = stack.append, stack.pop
        match = _TAG.match
        new = object.__new__
        count = self.count
        memo = _token_memo
        if len(memo) > _TOKEN_MEMO_SIZE:
            memo.clear()
        self.sentinel.text = _segment(pieces[0])
        for i in range(1, len(pieces)):
            piece = pieces[i]
            hit = memo.get(piece)
            if hit is None:
                # Attribute values pair the quotes of a tag text in order,
                # so a match that ends at the text's first ">" ends there
                # whatever follows it: the piece cut after that ">" is the
                # same tag with no text.
                stop = piece.find(">") + 1
                bare = memo.get(piece[:stop]) if stop else None
                if bare is not None:
                    hit = memo[piece] = bare[:5] + (_segment(piece[stop:]),)
                else:
                    m = match(piece)
                    token = m and _token(m)
                    if token is None:
                        # outside the subset, or raw text: html.parser reads
                        # the rest.  Every token so far ended outside raw
                        # text, where html.parser keeps no state between
                        # tokens: `rawdata` is empty and `cdata_elem` is
                        # None (`lasttag` is written but never read).  So it
                        # reads the rest exactly as it would have read it as
                        # part of the whole document.
                        self.count = count
                        self.feed(source[len("<".join(pieces[:i])) :])
                        self.close()
                        return
                    hit = token + (_segment(piece[m.end() :]),)
                    if m.end() == stop:  # a value holding ">" is not memoized
                        memo[piece[:stop]] = token + ("",)
                        memo[piece] = hit
            is_end, tag, attrs, closers, opens, seg = hit
            if is_end:
                if stack[-1].label == tag:  # never the sentinel's "#document"
                    pop()
                else:
                    self.handle_endtag(tag)
            else:
                if closers:
                    while len(stack) > 1 and stack[-1].label in closers:
                        pop()
                # DomNode.__init__ written inline: one call less per element
                node = new(DomNode)
                node.label = tag
                node.attributes = attrs.copy()  # never the memo's own dict
                node.text = ""
                node.children = []
                count += 1
                stack[-1].children.append(node)
                if opens:
                    push(node)
            if seg:
                node = stack[-1]
                node.text = node.text + " " + seg if node.text else seg
        self.count = count  # html.parser was fed nothing: nothing to close

    def handle_starttag(self, tag, attrs):
        closers = CLOSES_ON_START.get(tag)
        if closers:
            while len(self.stack) > 1 and self.stack[-1].label in closers:
                self.stack.pop()
        attributes = {}
        for name, value in attrs:
            if name not in attributes:  # first occurrence wins
                attributes[name] = value if value is not None else ""
        node = DomNode(tag, attributes)
        self.count += 1
        self.stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in VOID_ELEMENTS and self.stack[-1].label == tag:
            self.stack.pop()

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].label == tag:
                del self.stack[i:]
                return
        # no matching open tag: ignore

    def handle_data(self, data):
        node = self.stack[-1]
        if node.label in RAWTEXT_ELEMENTS:
            return
        seg = _collapse_ws(data)
        if not seg:
            return
        node.text = node.text + " " + seg if node.text else seg

    # comments, doctype, processing instructions: HTMLParser's handlers drop them

    def finish(self, synthesize_root: bool) -> DomNode:
        top = self.sentinel.children
        if synthesize_root:
            if len(top) == 1 and top[0].label == "html" and not self.sentinel.text:
                return top[0]
            root = DomNode("html")
            self.count += 1
            root.children = top
            root.text = self.sentinel.text
            return root
        if len(top) != 1:
            raise ParseError("expected a single root element, got %d" % len(top))
        if self.sentinel.text:
            raise ParseError("unexpected text outside the root element")
        return top[0]


def _build(source, synthesize_root: bool):
    """(root, element count) of str or bytes markup.  Bytes are UTF-8 with
    universal newlines, and bytes that do not decode become U+FFFD."""
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    builder = _TreeBuilder()
    builder.parse(source)
    return builder.finish(synthesize_root), builder.count


def parse_html(source, source_id: str = "") -> DomTree:
    """Parse a full page.  Never raises on malformed markup; an empty or
    element-free document yields a bare synthesized <html> root."""
    root, count = _build(source, synthesize_root=True)
    return DomTree(root=root, source_id=source_id, node_count=count)


def read_page(path, source_id: str = "") -> DomTree:
    """Parse the page file at path as parse_html parses its bytes."""
    with open(path, "rb") as fh:
        return parse_html(fh.read(), source_id)


def parse_snippet(source) -> DomNode:
    """Parse a serialized subtree (one root element, e.g. a stored example).

    Raises ParseError when the snippet does not contain exactly one
    top-level element.
    """
    return _build(source, synthesize_root=False)[0]


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def _escape(s: str, table) -> str:
    return re.sub(r"[&<>\"]", lambda m: table.get(m.group(0), m.group(0)), s)


def serialize(node) -> str:
    """Canonical serialization: indented, lowercase tags, attributes in
    alphabetical order (serialization only; attribute order on the node is
    source order), text right after the open tag, void elements
    self-closed.  Feeding the output back to parse_html/parse_snippet
    reproduces the tree exactly."""
    if isinstance(node, DomTree):
        node = node.root
    lines = []
    _serialize_into(node, lines)
    return "\n".join(lines) + "\n"


def _serialize_into(node: DomNode, lines: list):
    # the stack holds nodes still to open, with their depth, and the
    # closing lines of the elements they sit in
    stack = [(node, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, depth = item
        pad = "  " * depth
        parts = [node.label]
        for name in sorted(node.attributes):
            parts.append('%s="%s"' % (name, _escape(node.attributes[name], _ATTR_ESCAPES)))
        open_tag = "<" + " ".join(parts) + ">"
        text = _escape(node.text, _TEXT_ESCAPES) if node.text else ""
        if node.label in VOID_ELEMENTS and not node.children and not node.text:
            lines.append(pad + "<" + " ".join(parts) + "/>")
        elif not node.children:
            lines.append("%s%s%s</%s>" % (pad, open_tag, text, node.label))
        else:
            lines.append(pad + open_tag + text)
            stack.append("%s</%s>" % (pad, node.label))
            stack.extend([(c, depth + 1) for c in reversed(node.children)])


def resolve(tree, path: NodePath) -> DomNode:
    """Walk a path of child indices from the root.  () resolves to the root."""
    node = tree.root if isinstance(tree, DomTree) else tree
    for step in path:
        if step < 0 or step >= len(node.children):
            raise PathError("no node at path %r (failed at step %r)" % (path, step))
        node = node.children[step]
    return node


def enumerate_subtrees(tree, label: Optional[str] = None):
    """All (path, node) pairs in document order, optionally filtered by label."""
    root = tree.root if isinstance(tree, DomTree) else tree
    return [(p, n) for p, n in _walk(root) if label is None or n.label == label]


def _walk(node, path: NodePath = ()) -> Iterator:
    """(path, node) for the node and every descendant, document order.
    Reads only `.children`, so it walks any tree of such nodes.  An
    explicit stack, so page depth is not bounded by the recursion limit."""
    stack = [(path, node)]
    pop, extend = stack.pop, stack.extend
    while stack:
        item = pop()
        yield item  # the stack's own pair: no new tuple per node
        path, node = item
        children = node.children
        if children:
            extend([(path + (i,), children[i]) for i in range(len(children) - 1, -1, -1)])


def inside(path: NodePath, top) -> bool:
    """Whether path lies in the subtree at top, top itself included; a
    top of None is the document."""
    return top is None or path[: len(top)] == top


class Containment:
    """Which of a list of contexts hold a path, by `inside`: a map from
    each context to its positions in the list, None being the document.
    A lookup reads the path's prefix at each distinct context depth, so it
    costs O(depth), not O(contexts)."""

    def __init__(self, contexts):
        self.positions = {}
        for i, c in enumerate(contexts):
            self.positions.setdefault(c, []).append(i)
        self.depths = sorted({len(c) for c in self.positions if c is not None})

    def holders(self, path: NodePath) -> list:
        """Positions of the contexts that hold path, ascending."""
        positions = self.positions
        found = list(positions.get(None, ()))
        for d in self.depths:
            if d > len(path):
                break
            found += positions.get(path[:d], ())
        found.sort()
        return found


def ancestor(tree, path: NodePath, levels: int):
    """Climb `levels` steps up from `path`, clamped at the root.

    Returns (ancestor_path, ancestor_node, residual_path) where
    residual_path leads from the ancestor back down to the original node.
    levels=0 returns the node itself with an empty residual.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    resolve(tree, path)  # validate before slicing
    cut = max(0, len(path) - levels)
    anc_path = path[:cut]
    residual = path[cut:]
    return anc_path, resolve(tree, anc_path), residual


def detach_subtree(node: DomNode) -> DomNode:
    """Deep copy re-rooted at the node: paths into the copy start at its
    root.  Built with an explicit stack, so any depth copies."""
    copy = DomNode(node.label, dict(node.attributes), node.text)
    stack = [(node, copy)]
    while stack:
        src, dst = stack.pop()
        for c in src.children:
            child = DomNode(c.label, dict(c.attributes), c.text)
            dst.children.append(child)
            stack.append((c, child))
    return copy


def subtree_size(node: DomNode) -> int:
    """Elements in the subtree, the node included.  A plain child stack:
    counting needs no paths."""
    count = 0
    stack = [node]
    pop, extend = stack.pop, stack.extend
    while stack:
        count += 1
        extend(pop().children)
    return count

