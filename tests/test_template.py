"""Template construction, generalization, refinement, matching."""

import pytest

from conftest import build_node, random_node
from wrapmend import template as template_module
from wrapmend.dom import parse_snippet
from wrapmend.matching import DEFAULT_LABELER, Labeler
from wrapmend.template import (
    EXACTLY_ONE,
    ONE_OR_MORE,
    OPTIONAL,
    ZERO_OR_MORE,
    GeneralizeError,
    TreeTemplate,
    generalize,
    levels,
    refine,
    template_from_tree,
    template_match,
)


def L(tag):
    # default labeler key is (element, id, class) joined on "|"
    return tag + "||"


def accepts(template, node):
    return () in template_match(template, node)


class TestFromTree:
    def test_mirrors_shape(self):
        node = parse_snippet("<div><span></span><b><i></i></b></div>")
        t = template_from_tree(node)
        assert t.label == L("div")
        assert [c.label for c in t.children] == [L("span"), L("b")]
        assert t.children[1].children[0].label == L("i")

    def test_everything_exactly_one(self):
        node = parse_snippet("<ul><li></li><li></li></ul>")
        t = template_from_tree(node)
        assert t.occurrence == EXACTLY_ONE
        assert all(c.occurrence == EXACTLY_ONE for c in t.children)

    def test_accepts_own_tree(self):
        node = parse_snippet("<div><span></span><b></b></div>")
        assert accepts(template_from_tree(node), node)

    def test_rejects_other_shape(self):
        node = parse_snippet("<div><span></span></div>")
        other = parse_snippet("<div><span></span><span></span></div>")
        assert not accepts(template_from_tree(node), other)

    def test_levels_count_the_deepest_branch(self):
        node = parse_snippet("<div><span></span><b><i></i></b></div>")
        assert levels(template_from_tree(node)) == 3
        chain = TreeTemplate(L("div"))
        for _ in range(2999):  # deeper than the recursion limit
            chain = TreeTemplate(L("div"), children=(chain,))
        assert levels(chain) == 3000

    def test_labeler_attribute_components(self):
        node = parse_snippet('<div class="record"></div>')
        labeler = Labeler(use_element_name=True, use_class_attribute=True)
        t = template_from_tree(node, labeler)
        assert t.label == "div||record"


class TestGeneralize:
    def test_list_shrink_collapses_to_one_or_more(self):
        a = parse_snippet("<ul><li></li><li></li><li></li></ul>")
        b = parse_snippet("<ul><li></li><li></li></ul>")
        t = generalize(a, b)
        assert len(t.children) == 1
        assert t.children[0].label == L("li")
        assert t.children[0].occurrence == ONE_OR_MORE

    def test_one_or_more_accepts_other_counts(self):
        a = parse_snippet("<ul><li></li><li></li><li></li></ul>")
        b = parse_snippet("<ul><li></li><li></li></ul>")
        t = generalize(a, b)
        for k in (1, 2, 3, 5):
            assert accepts(t, build_node("ul", *[build_node("li") for _ in range(k)]))
        assert not accepts(t, build_node("ul"))

    def test_repeated_pair_is_list_evidence(self):
        # both sides showing two identical siblings reads as a list
        a = parse_snippet("<ul><li></li><li></li></ul>")
        t = generalize(a, parse_snippet("<ul><li></li><li></li></ul>"))
        assert t.children[0].occurrence == ONE_OR_MORE

    def test_growth_collapses_too(self):
        a = parse_snippet("<div><b></b></div>")
        b = parse_snippet("<div><b></b><b></b></div>")
        t = generalize(a, b)
        assert len(t.children) == 1
        assert t.children[0].occurrence == ONE_OR_MORE

    def test_missing_child_becomes_optional(self):
        a = parse_snippet("<div><b></b><i></i></div>")
        b = parse_snippet("<div><b></b></div>")
        t = generalize(a, b)
        assert [c.label for c in t.children] == [L("b"), L("i")]
        assert t.children[0].occurrence == EXACTLY_ONE
        assert t.children[1].occurrence == OPTIONAL

    def test_disjoint_children_both_optional(self):
        a = parse_snippet("<div><b></b></div>")
        b = parse_snippet("<div><i></i></div>")
        t = generalize(a, b)
        assert {(c.label, c.occurrence) for c in t.children} == {
            (L("b"), OPTIONAL),
            (L("i"), OPTIONAL),
        }
        assert accepts(t, build_node("div"))
        assert accepts(t, build_node("div", build_node("b"), build_node("i")))

    def test_emptied_list_goes_zero_or_more(self):
        a = parse_snippet("<ul><li></li><li></li></ul>")
        b = parse_snippet("<ul></ul>")
        t = generalize(a, b)
        assert t.children[0].occurrence == ZERO_OR_MORE
        assert accepts(t, build_node("ul"))

    def test_wrapper_level_becomes_depth_optional(self):
        a = parse_snippet("<div><span><b></b></span></div>")
        b = parse_snippet("<div><b></b></div>")
        t = generalize(a, b)
        assert len(t.children) == 1
        wrapper = t.children[0]
        assert wrapper.label == L("span")
        assert wrapper.depth_optional
        assert wrapper.children[0].label == L("b")
        assert accepts(t, a)
        assert accepts(t, b)

    def test_depth_optional_symmetric(self):
        # the extra level may appear on either argument
        a = parse_snippet("<div><b></b></div>")
        b = parse_snippet("<div><span><b></b></span></div>")
        t = generalize(a, b)
        assert t.children[0].depth_optional
        assert accepts(t, a)
        assert accepts(t, b)

    def test_root_label_mismatch_raises(self):
        with pytest.raises(GeneralizeError):
            generalize(parse_snippet("<div></div>"), parse_snippet("<ul></ul>"))

    def test_accepts_both_inputs_sampled(self, rng):
        labels = ("div", "span", "em")
        for _ in range(150):
            a = random_node(rng, max_depth=3, max_branch=3, labels=labels)
            b = random_node(rng, max_depth=3, max_branch=3, labels=labels)
            a.label = b.label = "div"
            t = generalize(a, b)
            assert accepts(t, a), (a, b)
            assert accepts(t, b), (a, b)


class TestRefine:
    def test_identity_when_already_accepted(self):
        a = parse_snippet("<ul><li></li><li></li><li></li></ul>")
        b = parse_snippet("<ul><li></li><li></li></ul>")
        t = generalize(a, b)
        assert refine(t, parse_snippet("<ul><li></li></ul>")) is t

    def test_widens_on_new_shape(self):
        t = template_from_tree(parse_snippet("<div><b></b></div>"))
        t2 = refine(t, parse_snippet("<div><b></b><b></b></div>"))
        assert t2 is not t
        assert t2.children[0].occurrence == ONE_OR_MORE

    def test_label_mismatch_raises(self):
        t = template_from_tree(parse_snippet("<div></div>"))
        with pytest.raises(GeneralizeError):
            refine(t, parse_snippet("<ul></ul>"))

    def count_builds(self, monkeypatch):
        """Nodes template_from_tree is called on, its own recursion included."""
        built = []

        def counting(node, *args):
            built.append(node)
            return template_from_tree(node, *args)

        monkeypatch.setattr(template_module, "template_from_tree", counting)
        return built

    def test_accepted_example_builds_no_template(self, monkeypatch):
        t = generalize(
            parse_snippet("<ul><li></li><li></li><li></li></ul>"),
            parse_snippet("<ul><li></li><li></li></ul>"),
        )
        built = self.count_builds(monkeypatch)
        assert refine(t, parse_snippet("<ul><li></li><li></li><li></li><li></li></ul>")) is t
        assert built == []

    def test_merge_builds_the_example_template_once(self, monkeypatch):
        t = template_from_tree(parse_snippet("<div><b></b></div>"))
        example = parse_snippet("<div><b></b><b></b></div>")
        built = self.count_builds(monkeypatch)
        assert refine(t, example) is not t
        assert built == [example] + example.children

    def test_label_mismatch_raises_before_acceptance(self):
        # a wildcard root accepts any node, yet refine compares root labels first
        t = TreeTemplate("*")
        assert accepts(t, parse_snippet("<ul></ul>"))
        with pytest.raises(GeneralizeError):
            refine(t, parse_snippet("<ul></ul>"))

    def test_never_shrinks_sampled(self, rng):
        labels = ("div", "span", "em")
        for _ in range(120):
            seen = []
            for k in range(4):
                node = random_node(rng, max_depth=3, max_branch=3, labels=labels)
                node.label = "div"
                seen.append(node)
            t = template_from_tree(seen[0])
            for node in seen[1:]:
                t = refine(t, node)
                # widening only: every earlier example still fits
                for prior in seen[: seen.index(node) + 1]:
                    assert accepts(t, prior)


class TestMatch:
    def test_requires_full_child_consumption(self):
        t = generalize(
            parse_snippet("<ul><li></li><li></li></ul>"),
            parse_snippet("<ul><li></li></ul>"),
        )
        assert not accepts(t, parse_snippet("<ul><li></li><b></b></ul>"))

    def test_finds_all_nodes_in_document_order(self):
        page = parse_snippet(
            "<div>"
            "<section><b></b></section>"
            "<section><b></b></section>"
            "<section><i></i></section>"
            "</div>"
        )
        t = template_from_tree(parse_snippet("<section><b></b></section>"))
        assert template_match(t, page) == [(0,), (1,)]

    def test_match_on_tree_argument(self):
        from wrapmend.dom import parse_html

        tree = parse_html("<html><body><p></p><p></p></body></html>")
        t = template_from_tree(parse_snippet("<p></p>"))
        assert template_match(t, tree) == [(0, 0), (0, 1)]

    def test_depth_optional_splices_children(self):
        inner = TreeTemplate(label=L("b"))
        wrapper = TreeTemplate(label=L("span"), depth_optional=True, children=(inner,))
        t = TreeTemplate(label=L("div"), children=(wrapper,))
        assert accepts(t, parse_snippet("<div><span><b></b></span></div>"))
        assert accepts(t, parse_snippet("<div><b></b></div>"))
        assert not accepts(t, parse_snippet("<div><i></i></div>"))

    def test_wildcard_label(self):
        t = TreeTemplate(label="*")
        assert accepts(t, build_node("div"))
        assert accepts(t, build_node("ul"))
        assert not accepts(t, build_node("div", build_node("b")))

    def test_zero_or_more_allows_absence(self):
        t = TreeTemplate(
            label=L("ul"),
            children=(TreeTemplate(label=L("li"), occurrence=ZERO_OR_MORE),),
        )
        for k in (0, 1, 4):
            assert accepts(t, build_node("ul", *[build_node("li") for _ in range(k)]))


class TestSerialization:
    def test_round_trip(self):
        a = parse_snippet("<div><span><b></b></span><i></i></div>")
        b = parse_snippet("<div><b></b></div>")
        t = generalize(a, b)
        assert TreeTemplate.from_dict(t.to_dict()) == t

    def test_dict_shape(self):
        t = TreeTemplate(
            label=L("ul"),
            children=(TreeTemplate(label=L("li"), occurrence=ONE_OR_MORE),),
        )
        d = t.to_dict()
        assert d == {
            "label": "ul||",
            "occurrence": "exactly_one",
            "depth_optional": False,
            "children": [
                {
                    "label": "li||",
                    "occurrence": "one_or_more",
                    "depth_optional": False,
                    "children": [],
                }
            ],
        }

    def test_unknown_occurrence_rejected(self):
        with pytest.raises(ValueError):
            TreeTemplate(label="x", occurrence="twice")
