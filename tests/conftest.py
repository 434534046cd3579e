from __future__ import annotations

import random

import pytest

from wrapmend.dom import DomNode, DomTree

# Labels chosen so that randomly nested structures survive an HTML
# round trip: no implied-close pairs among them.
SAFE_LABELS = ("div", "span", "section", "article", "em", "b", "i", "u")
WORDS = ("alpha", "beta", "gamma", "delta", "x<y", "a&b", 'q"q', "  pad  ")


def build_node(label, *children, attrs=None, text=""):
    return DomNode(label, dict(attrs or {}), text, list(children))


def build_tree(label, *children, attrs=None, text="") -> DomTree:
    return DomTree(root=build_node(label, *children, attrs=attrs, text=text))


def random_node(rng: random.Random, max_depth=4, max_branch=4, labels=SAFE_LABELS,
                with_text=False, with_attrs=False) -> DomNode:
    node = DomNode(rng.choice(labels))
    if with_attrs and rng.random() < 0.4:
        node.attributes["class"] = rng.choice(WORDS).strip() or "pad"
        if rng.random() < 0.3:
            node.attributes["id"] = "n%d" % rng.randrange(1000)
    if with_text and rng.random() < 0.5:
        # owned text is stored whitespace-collapsed; keep fixtures in that form
        node.text = " ".join(rng.choice(WORDS).split())
    if max_depth > 0:
        for _ in range(rng.randrange(max_branch + 1)):
            node.children.append(
                random_node(rng, max_depth - 1, max_branch, labels, with_text, with_attrs)
            )
    return node


def random_tree(rng: random.Random, **kw) -> DomTree:
    return DomTree(root=random_node(rng, **kw))


def deep_page(depth: int) -> str:
    """A chain of `depth` divs, each owning text and a class."""
    opened = "".join('<div class="c%d">t%d' % (i % 3, i) for i in range(depth))
    return "<html><body>%s%s</body></html>" % (opened, "</div>" * depth)


def scenario_pages(cases: int = 2) -> list:
    """For each corpus scenario and case, the intact listing as
    corpus.generate_page writes it and the damaged page as mutate_tree and
    serialize write it; seeds as corpus.build_corpus draws them."""
    from wrapmend.corpus import DEFAULT_RATE, SCENARIOS, generate_page
    from wrapmend.dom import parse_html, serialize
    from wrapmend.mutate import MutationSpec, mutate_tree

    pages = []
    for s_idx, (_, operations) in enumerate(SCENARIOS):
        for case in range(cases):
            seed = s_idx * 1000 + case
            html = generate_page(random.Random(seed))
            spec = MutationSpec(operations=operations, seed=seed + 500, rate=DEFAULT_RATE)
            mutated, _ = mutate_tree(parse_html(html), spec)
            pages += [html, serialize(mutated)]
    return pages


def random_wrapper(rng: random.Random, name=None):
    """A structurally varied wrapper for serialization/persistence tests."""
    from wrapmend.constraints import CardinalityConstraint, DatatypeConstraint
    from wrapmend.model import AdaptationConfig, Rule, StoredExample, Wrapper
    from wrapmend.template import template_from_tree
    from wrapmend.xpath import FallbackPlan, PlanEntry, parse_xpath

    def random_constraint():
        if rng.random() < 0.6:
            lo = rng.randrange(3)
            hi = rng.choice((None, lo, lo + 2))
            return CardinalityConstraint(lo, hi)
        return rng.choice(
            (
                DatatypeConstraint(datatype="integer"),
                DatatypeConstraint(datatype="decimal"),
                DatatypeConstraint(datatype="pattern", pattern=r"[a-z]+\d*"),
            )
        )

    def random_plan():
        best = rng.choice(
            (
                "//div[@id='x%d']" % rng.randrange(50),
                "/html/body/div[%d]/span" % (rng.randrange(5) + 1),
                "//span[@class='c%d']" % rng.randrange(50),
            )
        )
        fallbacks = tuple(
            PlanEntry(
                expr=parse_xpath("/html/body/div[%d]" % (k + 1)),
                tag=rng.choice(("structural", "positional", "anchor")),
                priority=40 + 10 * k,
            )
            for k in range(rng.randrange(3))
        )
        return FallbackPlan(
            best=parse_xpath(best),
            best_tag=rng.choice(("id", "attribute", "positional")),
            fallbacks=fallbacks,
        )

    def random_rule(depth, index):
        constraints = tuple(random_constraint() for _ in range(rng.randrange(1, 3)))
        adaptation = None
        stored = None
        template = None
        if rng.random() < 0.7:
            adaptation = AdaptationConfig(
                algorithm=rng.choice(("simple", "weighted")),
                threshold=(
                    rng.choice((0.7, (0.4, 0.95), (0.2, 0.8)))
                ),
                last_chosen=rng.choice((None, 0.55)),
                ancestor_level=rng.choice((None, 0, 2)),
                triggers=frozenset(
                    t
                    for t in ("top_down", "bottom_up", "process_flow")
                    if rng.random() < 0.5
                ),
                update_stored=rng.random() < 0.8,
            )
            stored = StoredExample(
                subtree=random_node(rng, max_depth=2, max_branch=2),
                captured_from="seed-page",
                captured_at="2026-01-01T00:00:00+00:00",
            )
        if rng.random() < 0.3:
            template = template_from_tree(random_node(rng, max_depth=2, max_branch=2))
        children = ()
        if depth > 0:
            children = tuple(
                random_rule(depth - 1, k) for k in range(rng.randrange(3))
            )
        return Rule(
            name="rule%d_%d" % (depth, index),
            plan=random_plan(),
            constraints=constraints,
            adaptation=adaptation,
            stored_example=stored,
            template=template,
            children=children,
        )

    return Wrapper(
        name=name or "w%05d" % rng.randrange(100000),
        version=1,
        root_rules=tuple(random_rule(1, k) for k in range(rng.randrange(1, 4))),
        constraints=(CardinalityConstraint(1, None),),
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
