from __future__ import annotations

import json
import random
import re
import tracemalloc
from html.parser import HTMLParser

import pytest
from hypothesis import given, settings, strategies as st

from wrapmend import dom
from wrapmend.corpus import author_wrapper, generate_page
from wrapmend.dom import (
    DomNode,
    ParseError,
    PathError,
    _TreeBuilder,
    ancestor,
    detach_subtree,
    enumerate_subtrees,
    parse_html,
    parse_snippet,
    read_page,
    resolve,
    serialize,
    subtree_size,
)
from wrapmend.model import wrapper_from_dict, wrapper_json

from conftest import build_node, deep_page, random_tree, scenario_pages

# the malformed and edge-case sources of TestParse and TestSnippet, and
# repeated tag texts that the parser's per-page memo must read right
MALFORMED = (
    "",
    "<div>a</div><div>b</div>",
    "<div><b>a<i>b</div>",
    "<ul><li>one<li>two<li>three</ul>",
    "<body><p>one<p>two<div>three</div></body>",
    "<table><tr><td>a<td>b<tr><td>c</table>",
    "<div><br><img src='x.png'><span>s</span></div>",
    "<div></span><p>x</p></div>",
    "<div><span><b>x</div><p>y</p>",
    '<div ID="a" id="b" CLASS="c" hidden>t</div>',
    "<!DOCTYPE html><html><!-- hi --><body>x</body></html>",
    "<body><script>if (a<b) { x(); }</script><p>k</p></body>",
    "<p>  hello \n\t world  </p>",
    "<div>\n  <p>x</p>\n</div>",
    "<p>a &amp; b &lt;tag&gt;</p>",
    "<div></div><div></div>",
    "<td>cell</td>",
    # the same text up to the first ">", but only the second is a whole tag
    '<p><a title="x>y">1</a><a title="x">2</a><a title="x>y">3</a><a title="x">4</a></p>',
    "<DIV>a<DIV>b</DIV>c</div><DIV>d</DIV>",
    # indentation-only text, and Unicode spaces alone and inside text
    "<div>\n    \n  <p>x</p>\n\t\n</div>\n",
    "<div>\xa0<p>\u2003</p>\xa0\u2003\n<p>a\u2003b\xa0 c</p>\u2003</div>",
)


class TestParse:
    def test_minimal_page(self):
        tree = parse_html("<html><body><p>x</p></body></html>")
        assert tree.node_count == 3
        assert tree.root.label == "html"
        body = tree.root.children[0]
        assert body.label == "body"
        p = body.children[0]
        assert p.label == "p"
        assert p.text == "x"

    def test_empty_document_synthesizes_root(self):
        tree = parse_html("")
        assert tree.root.label == "html"
        assert tree.node_count == 1
        assert tree.root.children == []

    def test_missing_html_element_synthesizes_root(self):
        tree = parse_html("<div>a</div><div>b</div>")
        assert tree.root.label == "html"
        assert [c.label for c in tree.root.children] == ["div", "div"]

    def test_unclosed_tags_recovered(self):
        # recovery keeps nesting: b stays open, i nested inside it
        tree = parse_html("<div><b>a<i>b</div>")
        div = tree.root.children[0] if tree.root.label == "html" else tree.root
        assert div.label == "div"
        assert [c.label for c in div.children] == ["b"]
        b = div.children[0]
        assert b.text == "a"
        assert [c.label for c in b.children] == ["i"]
        assert b.children[0].text == "b"

    def test_implied_close_li(self):
        tree = parse_html("<ul><li>one<li>two<li>three</ul>")
        ul = tree.root.children[0]
        assert [c.label for c in ul.children] == ["li", "li", "li"]
        assert [c.text for c in ul.children] == ["one", "two", "three"]

    def test_implied_close_p(self):
        tree = parse_html("<body><p>one<p>two<div>three</div></body>")
        body = tree.root.children[0]
        assert [c.label for c in body.children] == ["p", "p", "div"]

    def test_table_cells_implied_close(self):
        tree = parse_html("<table><tr><td>a<td>b<tr><td>c</table>")
        table = tree.root.children[0]
        rows = table.children
        assert [r.label for r in rows] == ["tr", "tr"]
        assert [c.text for c in rows[0].children] == ["a", "b"]
        assert [c.text for c in rows[1].children] == ["c"]

    def test_void_elements_do_not_nest(self):
        tree = parse_html("<div><br><img src='x.png'><span>s</span></div>")
        div = tree.root.children[0]
        assert [c.label for c in div.children] == ["br", "img", "span"]
        assert div.children[1].attributes == {"src": "x.png"}

    def test_unmatched_end_tag_ignored(self):
        tree = parse_html("<div></span><p>x</p></div>")
        div = tree.root.children[0]
        assert [c.label for c in div.children] == ["p"]

    def test_stray_end_tag_closes_through_intermediates(self):
        tree = parse_html("<div><span><b>x</div><p>y</p>")
        root = tree.root
        assert [c.label for c in root.children] == ["div", "p"]

    def test_attributes_lowercased_first_wins(self):
        tree = parse_html('<div ID="a" id="b" CLASS="c" hidden>t</div>')
        div = tree.root.children[0]
        assert div.attributes == {"id": "a", "class": "c", "hidden": ""}

    def test_comments_and_doctype_dropped(self):
        tree = parse_html("<!DOCTYPE html><html><!-- hi --><body>x</body></html>")
        assert tree.root.label == "html"
        assert [c.label for c in tree.root.children] == ["body"]

    def test_script_text_dropped(self):
        tree = parse_html("<body><script>if (a<b) { x(); }</script><p>k</p></body>")
        body = tree.root.children[0]
        script = body.children[0]
        assert script.label == "script"
        assert script.text == ""
        assert body.children[1].text == "k"

    def test_whitespace_collapsed(self):
        tree = parse_html("<p>  hello \n\t world  </p>")
        p = tree.root.children[0]
        assert p.text == "hello world"

    def test_text_segments_joined(self):
        tree = parse_html("<p>hello <b>big</b> world</p>")
        p = tree.root.children[0]
        assert p.text == "hello world"
        assert p.children[0].text == "big"

    def test_whitespace_only_text_dropped(self):
        tree = parse_html("<div>\n  <p>x</p>\n</div>")
        div = tree.root.children[0]
        assert div.text == ""

    def test_entities_decoded(self):
        tree = parse_html("<p>a &amp; b &lt;tag&gt;</p>")
        assert tree.root.children[0].text == "a & b <tag>"

    def test_bytes_input(self):
        tree = parse_html(b"<p>caf\xc3\xa9</p>", source_id="page-1")
        assert tree.root.children[0].text == "café"
        assert tree.source_id == "page-1"

    def test_read_page_decodes_any_bytes(self, tmp_path):
        # Latin-1 bytes become U+FFFD; CRLF and a lone CR become newlines
        raw = b'<p title="a\r\nb\rc">caf\xe9</p>'
        path = tmp_path / "page.html"
        path.write_bytes(raw)
        tree = read_page(path, source_id="page")
        p = tree.root.children[0]
        assert p.text == "caf\ufffd"
        assert p.attributes["title"] == "a\nb\nc"
        assert tree.source_id == "page"
        assert serialize(tree) == serialize(parse_html(raw))

    def test_node_count_counts_elements_only(self):
        # synthesized html root + div + two spans; text segments are not nodes
        tree = parse_html("<div>a<span>b</span>c<span>d</span></div>")
        assert tree.node_count == 4


class TestSnippet:
    def test_single_root_required(self):
        node = parse_snippet("<div><span>x</span></div>")
        assert node.label == "div"
        with pytest.raises(ParseError):
            parse_snippet("<div></div><div></div>")
        with pytest.raises(ParseError):
            parse_snippet("")

    def test_fragment_context_not_required(self):
        # table fragments parse standalone, no foster parenting
        node = parse_snippet("<td>cell</td>")
        assert node.label == "td"
        assert node.text == "cell"


class TestSerialize:
    def test_canonical_output(self):
        tree = parse_html('<html><body><div CLASS="z" id="a">t<br><p>x</p></div></body></html>')
        assert serialize(tree) == (
            "<html>\n"
            "  <body>\n"
            '    <div class="z" id="a">t\n'
            "      <br/>\n"
            "      <p>x</p>\n"
            "    </div>\n"
            "  </body>\n"
            "</html>\n"
        )

    def test_attributes_alphabetized_in_output_only(self):
        tree = parse_html('<div id="a" class="b"></div>')
        div = tree.root.children[0]
        assert list(div.attributes) == ["id", "class"]  # source order kept
        assert '<div class="b" id="a">' in serialize(tree)

    def test_escaping(self):
        node = build_node("p", attrs={"title": 'a"b&c'}, text="x<y & z")
        out = serialize(node)
        assert 'title="a&quot;b&amp;c"' in out
        assert "x&lt;y &amp; z" in out

    def test_round_trip_fixed_point(self):
        sources = [
            "<html><body><p>x</p></body></html>",
            "<div><b>a<i>b</div>",
            "<ul><li>one<li>two</ul>",
            "<table><tr><td>a<td>b</table>",
            "<p>a &amp; b</p>",
            '<div data-x="1" class="k">t<span>u</span>v</div>',
        ]
        for src in sources:
            tree = parse_html(src)
            once = serialize(tree)
            again = serialize(parse_html(once))
            assert once == again, src
            assert parse_html(once) == tree, src

    def test_round_trip_random_trees(self):
        rng = random.Random(17)
        for _ in range(60):
            tree = random_tree(rng, max_depth=4, max_branch=3,
                               with_text=True, with_attrs=True)
            text = serialize(tree)
            back = parse_snippet(text)
            assert back == tree.root


class TestAccessors:
    def test_enumerate_subtrees_document_order(self):
        tree = parse_html("<html><body><div><p>a</p></div><div><p>b</p></div></body></html>")
        paths = [p for p, _ in enumerate_subtrees(tree)]
        assert paths == [(), (0,), (0, 0), (0, 0, 0), (0, 1), (0, 1, 0)]
        assert paths == sorted(paths)

    def test_enumerate_subtrees_label_filter(self):
        tree = parse_html("<html><body><div><p>a</p></div><div><p>b</p></div></body></html>")
        ps = enumerate_subtrees(tree, label="p")
        assert [p for p, _ in ps] == [(0, 0, 0), (0, 1, 0)]

    def test_resolve(self):
        tree = parse_html("<html><body><p>x</p></body></html>")
        assert resolve(tree, ()).label == "html"
        assert resolve(tree, (0, 0)).text == "x"
        with pytest.raises(PathError):
            resolve(tree, (0, 5))

    def test_ancestor_zero_levels(self):
        tree = parse_html("<html><body><p>x</p></body></html>")
        path, node, residual = ancestor(tree, (0, 0), 0)
        assert path == (0, 0)
        assert node.label == "p"
        assert residual == ()

    def test_ancestor_clamps_at_root(self):
        tree = parse_html("<html><body><p>x</p></body></html>")
        path, node, residual = ancestor(tree, (0, 0), 5)
        assert path == ()
        assert node.label == "html"
        assert residual == (0, 0)

    def test_ancestor_partial(self):
        tree = parse_html("<html><body><div><span><b>x</b></span></div></body></html>")
        path, node, residual = ancestor(tree, (0, 0, 0, 0), 2)
        assert path == (0, 0)
        assert node.label == "div"
        assert residual == (0, 0)

    def test_detach_subtree(self):
        tree = parse_html("<html><body><div><p>a</p><p>b</p></div></body></html>")
        div = resolve(tree, (0, 0))
        copy = detach_subtree(div)
        assert copy == div
        assert copy is not div
        copy.children[0].text = "changed"
        assert div.children[0].text == "a"

    def test_subtree_size_and_text(self):
        tree = parse_html("<div>a<span>b</span><span>c<b>d</b></span></div>")
        div = tree.root.children[0] if tree.root.label == "html" else tree.root
        assert subtree_size(div) == 4
        assert [n.text for _, n in enumerate_subtrees(div)] == ["a", "b", "c", "d"]

    def test_subtree_size_counts_every_node(self):
        rng = random.Random(5)
        roots = [random_tree(rng, max_depth=5, max_branch=4).root for _ in range(30)]
        roots += [parse_html(src).root for src in scenario_pages(cases=1)]
        for root in roots:
            assert subtree_size(root) == len(enumerate_subtrees(root))

    def test_structural_equality_ignores_position(self):
        t1 = parse_html("<div><p>x</p></div>")
        t2 = parse_html("<body><section><div><p>x</p></div></section></body>")
        div1 = t1.root.children[0]
        div2 = resolve(t2, (0, 0, 0))
        assert div1 == div2
        assert DomNode("a") != DomNode("b")
        assert build_node("a", build_node("b")) != build_node("a")
        assert build_node("a", build_node("b", text="x")) != build_node("a", build_node("b"))
        assert build_node("a", text="t") != build_node("a", text="u")


@pytest.mark.parametrize("depth", [1200, 3000])
class TestDeepPages:
    def test_serialize_round_trip_is_a_fixed_point(self, depth):
        tree = parse_html(deep_page(depth))
        assert tree.node_count == depth + 2
        text = serialize(tree)
        again = parse_html(text)
        assert serialize(again) == text
        assert again.node_count == tree.node_count

    def test_detached_copy_equals_and_is_independent(self, depth):
        tree = parse_html(deep_page(depth))
        copy = detach_subtree(tree.root)
        assert copy == tree.root
        leaf = (0,) * (depth + 1)
        resolve(copy, leaf).text = "changed"
        assert copy != tree.root
        assert resolve(tree, leaf).text == "t%d" % (depth - 1)


def test_deep_page_keeps_little_memory():
    # a node holds no path of its own, so a d-deep chain keeps O(d)
    # memory, not O(d^2) path entries
    source = "<div>" * 3000 + "</div>" * 3000
    tracemalloc.start()
    try:
        tree = parse_html(source)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.node_count == 3001
    assert kept < 5 * 2**20, kept


def _html_parser_alone(source):
    """The builder fed by html.parser only: parse_html's root and node
    count, and parse_snippet's root or its error."""
    builder = _TreeBuilder()
    builder.feed(source)
    builder.close()
    try:
        snippet = builder.finish(synthesize_root=False)
    except ParseError as e:
        snippet = repr(e)
    root = builder.finish(synthesize_root=True)
    return root, builder.count, snippet


def assert_reads_as_html_parser(source):
    tree = parse_html(source)
    root, count, snippet = _html_parser_alone(source)
    assert tree.root == root, source
    assert tree.node_count == count, source
    try:
        got = parse_snippet(source)
    except ParseError as e:
        got = repr(e)
    assert got == snippet, source


# Tag soup around the edges of the tokenizer's subset: quoting, case,
# whitespace that html.parser does not end a name on (\v, \xa0), names it
# reads differently, raw text, comments, stray "<" and bare "&".  A
# document is a run of tokens from the subset and then any tokens, so
# that what follows the run is met by the tokenizer, not by html.parser.
# The run is played twice, so that tokens the parser memoized on their
# first reading meet the edge tokens after the second.  Attributes repeat
# with different case (class, CLASS), "&" appears in names (outside the
# subset) and in values, and "/>" closes non-void tags as well as void.
_NAMES = (("div", "DIV", "p", "Li", "ul", "td", "TR", "table", "br", "IMG",
           "span", "b", "h1", "option", "x-Y:z.w_", "script", "Style"),
          ("x'y", "\xe9", "a\x00"))
_ATTR_SEPS = ((" ", "\n", "\t\r", "\f "), ("\v", "\xa0", "/", ""))
_ATTR_NAMES = (("class", "CLASS", "ID", "Data-X", "a:b"), ("_u", "@c", "x y", "", "a&b", "&amp;"))
_ATTR_VALUES = (('="v"', '="V w"', '=""', '="a&amp;b"', '="a&b"', '="a>b"', '="\n"'),
                ("='v'", "=v", "", '="<"', ' = "v"', '=="v"'))
_START_ENDS = ((">", "/>", " >", " />", "\n>"), ("\v>", "/ >", "", " "))
_END_ENDS = ((">", " >", "\n>"), ("\v>", " x>", ""))
_TEXTS = ("ab &;#x41>\n \t\xa0\x00\xe9", "<")


def _soup_token(edge):
    def pick(choices):
        return st.sampled_from(choices[0] + choices[1] if edge else choices[0])

    attr = st.builds(lambda *parts: "".join(parts),
                     pick(_ATTR_SEPS), pick(_ATTR_NAMES), pick(_ATTR_VALUES))
    start = st.builds(lambda name, attrs, end: "<" + name + "".join(attrs) + end,
                      pick(_NAMES), st.lists(attr, max_size=3), pick(_START_ENDS))
    end = st.builds(lambda name, end: "</" + name + end, pick(_NAMES), pick(_END_ENDS))
    text = st.text(alphabet="".join(_TEXTS) if edge else _TEXTS[0], min_size=1, max_size=6)
    tokens = [start, end, text]
    if edge:
        tokens.append(st.sampled_from(
            ("<!-- c -->", "<!--", "<!DOCTYPE html>", "<?pi?>", "<![CDATA[x]]>",
             "</>", "< p>", "&amp;", "&lt", "&#60;", "&#x3c;", "&", "<", ">")))
    return st.one_of(tokens)


TAG_SOUP = st.builds(
    lambda run, rest: "".join(run + run + rest),
    st.lists(_soup_token(edge=False), max_size=10),
    st.lists(_soup_token(edge=True), max_size=10),
)


class TestTokenizer:
    """parse_html and parse_snippet read markup with a regex tokenizer and
    hand html.parser what it cannot read; html.parser alone is the oracle."""

    def test_corpus_pages_and_their_serializations(self):
        for source in scenario_pages():
            assert_reads_as_html_parser(source)
            assert_reads_as_html_parser(serialize(parse_html(source)))

    @pytest.mark.parametrize("source", MALFORMED)
    def test_malformed_fixtures(self, source):
        assert_reads_as_html_parser(source)

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(TAG_SOUP)
    def test_tag_soup(self, source):
        assert_reads_as_html_parser(source)

    def test_library_markup_needs_no_html_parser(self, monkeypatch):
        # the markup the library writes stays inside the tokenizer's
        # subset: if a regex edit pushed it out, parsing would still be
        # right but as slow as html.parser
        listings = [generate_page(random.Random(seed)) for seed in range(5)]
        wrapper = wrapper_json(author_wrapper(parse_html(listings[0])))
        damaged = scenario_pages()[1::2]
        rng = random.Random(11)
        fragments = [
            serialize(random_tree(rng, max_depth=3, with_text=True, with_attrs=True))
            for _ in range(20)
        ]
        # serialize writes void elements self-closed; raw text is html.parser's
        fragments += [serialize(parse_html(s)) for s in MALFORMED if "<script" not in s]

        def refuse(parser, data):
            raise AssertionError("html.parser was handed %r" % data[:80])

        monkeypatch.setattr(HTMLParser, "feed", refuse)
        for source in listings + damaged:
            assert parse_html(source).node_count > 1
        assert wrapper_from_dict(json.loads(wrapper)).root_rules
        for source in fragments:
            parse_snippet(source)

    def test_each_distinct_tag_text_is_read_once(self, monkeypatch):
        # a listing repeats a few tag texts hundreds of times, and whole
        # pieces (a tag and the text up to the next tag) scores of times;
        # the parser reads each tag text once and collapses each piece's
        # text once, and keeps them for later pages.  If it read every
        # tag, parsing would still be right but much slower
        listing = generate_page(random.Random(0))
        calls, segments = [], []
        match, segment = dom._TAG.match, dom._segment

        class Counting:
            def match(self, piece):
                calls.append(piece)
                return match(piece)

        monkeypatch.setattr(dom, "_TAG", Counting())
        monkeypatch.setattr(dom, "_segment", lambda text: segments.append(text) or segment(text))
        monkeypatch.setattr(dom, "_token_memo", {})
        for source in (listing, serialize(parse_html(listing))):
            tags = re.findall("<([^<>]*)>", source)
            assert len(set(tags)) * 4 < len(tags)
            pieces = source.split("<")
            assert len(set(pieces)) * 2 < len(pieces)
            calls.clear()
            segments.clear()
            assert parse_html(source).node_count == len(re.findall("<[^/]", source))
            assert len(calls) <= len(set(tags)), (len(calls), len(set(tags)))
            # the text before the first tag, then each distinct piece
            assert len(segments) <= 1 + len(set(pieces[1:])), (len(segments), len(set(pieces)))

    def test_a_repeated_piece_keeps_its_entities_and_whitespace(self):
        source = "<ul><li>a&amp;b\n  c</li><li>a&amp;b\n  c</li></ul>"
        for _ in range(2):  # the second parse reads every piece from the memo
            items = parse_html(source).root.children[0].children
            assert [li.text for li in items] == ["a&b c", "a&b c"]
            assert_reads_as_html_parser(source)
        assert dom._token_memo["li>a&amp;b\n  c"][-1] == "a&b c"

    def test_a_piece_whose_value_holds_gt_is_never_memoized(self):
        source = '<p><a title="x>y">t  u</a><a title="x>y">t  u</a></p>'
        for _ in range(2):
            links = parse_html(source).root.children[0].children
            assert [(a.attributes, a.text) for a in links] == [({"title": "x>y"}, "t u")] * 2
            assert_reads_as_html_parser(source)
        assert not [key for key in dom._token_memo if 'title="x>' in key]

    def test_a_memoized_end_tag_piece_carries_its_text(self):
        # the piece "/p>y" closes the root and then puts text outside it
        for _ in range(2):
            with pytest.raises(ParseError, match="text outside the root"):
                parse_snippet("<p>x</p>y")
            assert "/p>y" in dom._token_memo

    def test_the_piece_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(dom, "_TOKEN_MEMO_SIZE", 8)
        for page in range(5):
            source = "".join('<p class="c">x%d-%d</p>' % (page, i) for i in range(6))
            tree = parse_html(source)
            assert [p.text for p in tree.root.children] == [
                "x%d-%d" % (page, i) for i in range(6)
            ]
            # cleared before a page once past the bound, then one page's
            # pieces: six with text, the bare start tag and the end tag
            assert len(dom._token_memo) <= 8 + 8
        assert not [key for key in dom._token_memo if key.endswith("x0-0")]

    def test_identical_tags_get_their_own_attributes(self):
        source = '<ul><li class="a">1</li><li class="a">2</li><li CLASS="a">3</li></ul>'
        first = parse_html(source)
        items = first.root.children[0].children
        items[0].attributes["class"] = "changed"
        items[1].attributes["id"] = "added"
        assert items[2].attributes == {"class": "a"}
        assert items[1].attributes == {"class": "a", "id": "added"}
        again = parse_html(source).root.children[0].children
        assert [li.attributes for li in again] == [{"class": "a"}] * 3
        assert len({id(li.attributes) for li in again}) == 3

    def test_a_later_page_gets_its_own_attribute_values(self):
        # tag tokens are memoized across pages: a tag text that differs
        # only in a value is its own token
        first = parse_html('<ul><li class="a" id="x">1</li></ul>')
        second = parse_html('<ul><li class="b" id="x">1</li></ul>')
        assert first.root.children[0].children[0].attributes == {"class": "a", "id": "x"}
        assert second.root.children[0].children[0].attributes == {"class": "b", "id": "x"}

    def test_the_token_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(dom, "_TOKEN_MEMO_SIZE", 8)
        for page in range(5):
            source = "".join('<p class="c%d-%d">x</p>' % (page, i) for i in range(6))
            tree = parse_html(source)
            assert [p.attributes["class"] for p in tree.root.children] == [
                "c%d-%d" % (page, i) for i in range(6)
            ]
            # cleared before a page once past the bound, then one page's tags
            assert len(dom._token_memo) <= 8 + 7

    def test_handover_is_used_outside_the_subset(self, monkeypatch):
        fed = []
        feed = HTMLParser.feed
        monkeypatch.setattr(HTMLParser, "feed", lambda p, data: fed.append(data) or feed(p, data))
        tree = parse_html("<div><p>a</p><script>x<y</script><b>c</b></div>")
        assert fed == ["<script>x<y</script><b>c</b></div>"]
        assert [c.label for c in tree.root.children[0].children] == ["p", "script", "b"]
