"""The whole repair loop under fuzzing.

Corpus pages, damaged by mutation mixes and by byte edits, run in one-
and two-page bundles under their site's authored wrapper.  Nothing may
raise, every match must name the node its text came from, and every
wrapper a repair writes back must pass the accept-only format check
(so a checkout of it never needs jsonschema), load back as itself and
run again on the same bundle.
"""

import functools
import json
import random

from hypothesis import example, given, settings, strategies as st

import wrapmend.model as model
from wrapmend.corpus import author_wrapper, generate_page
from wrapmend.dom import parse_html, resolve, serialize
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.model import wrapper_from_dict, wrapper_json
from wrapmend.mutate import OPERATIONS, MutationSpec, mutate_tree

SITES = 4
EDIT_CHARS = '<>/"=& \n'


@functools.cache
def site(index: int) -> tuple:
    """A corpus page and the wrapper authored on it."""
    html = generate_page(random.Random(index))
    return html, author_wrapper(parse_html(html))


def edit_bytes(html: str, edits) -> str:
    """html with each edit applied in turn: a deletion, an insertion of
    one character, or a swap of two neighbours, at a fraction of the
    length."""
    for op, where, char in edits:
        at = min(int(where * len(html)), len(html) - 2)
        if op == "delete":
            html = html[:at] + html[at + 1 :]
        elif op == "insert":
            html = html[:at] + char + html[at:]
        else:
            html = html[:at] + html[at + 1] + html[at] + html[at + 2 :]
    return html


EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "swap")),
        st.floats(0, 1),
        st.sampled_from(EDIT_CHARS),
    ),
    max_size=40,
)
MUTATIONS = st.none() | st.tuples(
    st.sets(st.sampled_from(OPERATIONS), min_size=1),
    st.integers(0, 10**6),
    st.sampled_from((0.15, 0.3, 0.6, 1.0)),
)


@st.composite
def bundles(draw) -> tuple:
    """(site index, pages' HTML): one or two damaged copies of the site's
    page."""
    index = draw(st.integers(0, SITES - 1))
    pages = []
    for _ in range(draw(st.integers(1, 2))):
        html = site(index)[0]
        mutation = draw(MUTATIONS)
        if mutation is not None:
            operations, seed, rate = mutation
            spec = MutationSpec(tuple(sorted(operations)), seed=seed, rate=rate)
            html = serialize(mutate_tree(parse_html(html), spec)[0])
        pages.append(edit_bytes(html, draw(EDITS)))
    return index, tuple(pages)


def prefixed_bundle() -> tuple:
    """Site 0's records relabelled inside an <o:section>, a name the
    locator grammar must spell for the repaired plans to load back."""
    html = site(0)[0]
    html = html.replace('<div id="main">', '<o:section id="main">')
    html = html.replace("</div><table", "</o:section><table")
    return 0, (html.replace('class="record"', 'class="item"'),)


def check_results(results, pages):
    for r in results:
        for (path, text), kids in zip(r.matches, r.children, strict=True):
            assert text == resolve(pages[r.page], path).text
            check_results(kids, pages)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(bundles())
@example(prefixed_bundle())
def test_whole_loop(bundle):
    index, sources = bundle
    pages = tuple(parse_html(s, source_id="p%d" % i) for i, s in enumerate(sources))
    ctx = ExecutionContext(pages=pages)
    results, _, new = execute_wrapper(site(index)[1], ctx)
    check_results(results, pages)
    if new is None:
        return
    d = json.loads(wrapper_json(new))
    assert model._conforms(d)
    loaded = wrapper_from_dict(d)
    assert loaded == new
    results, _, _ = execute_wrapper(loaded, ctx)
    check_results(results, pages)


def test_prefixed_bundle_repairs_through_the_prefixed_name():
    index, sources = prefixed_bundle()
    _, _, new = execute_wrapper(
        site(index)[1], ExecutionContext(pages=(parse_html(sources[0]),))
    )
    assert "o:section" in wrapper_json(new)
