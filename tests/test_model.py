"""Wrapper model: validation, capture, JSON round trips, schema gate."""

import json
from dataclasses import replace

import pytest

from wrapmend.constraints import CardinalityConstraint, DatatypeConstraint
from wrapmend.dom import PathError, parse_html, resolve, serialize
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.matching import Labeler
from wrapmend.model import (
    AdaptationConfig,
    Rule,
    StoredExample,
    Wrapper,
    WrapperFormatError,
    capture_example,
    load_wrapper,
    save_wrapper,
    wrapper_from_dict,
    wrapper_json,
)
from wrapmend.template import TreeTemplate
from wrapmend.xpath import (
    FallbackPlan,
    PlanEntry,
    Step,
    XPathExpr,
    evaluate,
    generate_plan,
    parse_xpath,
)

PAGE = parse_html(
    '<html><body><div id="rec">'
    '<span class="name">Widget</span>'
    '<span class="price">9.99</span>'
    "</div></body></html>",
    source_id="page-1",
)


def plan(expr="//div[@id='rec']", tag="id"):
    return FallbackPlan(
        best=parse_xpath(expr),
        best_tag=tag,
        fallbacks=(
            PlanEntry(expr=parse_xpath("/html/body/div"), tag="structural", priority=40),
        ),
    )


def sample_wrapper():
    child = Rule(
        name="price",
        plan=FallbackPlan(best=parse_xpath("./span[@class='price']"), best_tag="attribute"),
        constraints=(CardinalityConstraint(1, 1), DatatypeConstraint(datatype="decimal")),
        adaptation=AdaptationConfig(
            threshold=(0.4, 0.95), triggers=frozenset(("bottom_up",))
        ),
        stored_example=capture_example(PAGE, (0, 0, 1), ancestor_level=1),
    )
    record = Rule(
        name="record",
        plan=plan(),
        constraints=(CardinalityConstraint(1, None),),
        adaptation=AdaptationConfig(algorithm="weighted", threshold=0.7),
        stored_example=capture_example(PAGE, (0, 0)),
        template=TreeTemplate(
            label="div||",
            children=(TreeTemplate(label="span||", occurrence="one_or_more"),),
        ),
        children=(child,),
    )
    return Wrapper(name="shop", version=3, root_rules=(record,))


class TestAdaptationConfig:
    def test_defaults(self):
        cfg = AdaptationConfig()
        assert cfg.algorithm == "weighted"
        assert cfg.threshold == (0.4, 0.95)
        assert cfg.triggers == frozenset()
        assert cfg.update_stored is True
        assert cfg.ancestor_level is None

    def test_interval_of_constant(self):
        assert AdaptationConfig(threshold=0.8).interval == (0.8, 0.8)

    def test_interval_of_pair(self):
        assert AdaptationConfig(threshold=(0.3, 0.9)).interval == (0.3, 0.9)

    def test_algorithms_order(self):
        assert AdaptationConfig(algorithm="simple").algorithms() == ("simple",)
        cfg = AdaptationConfig(algorithm_order=("weighted", "simple"))
        assert cfg.algorithms() == ("weighted", "simple")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdaptationConfig(algorithm="fuzzy")
        with pytest.raises(ValueError):
            AdaptationConfig(threshold=1.5)
        with pytest.raises(ValueError):
            AdaptationConfig(threshold=(0.9, 0.4))
        with pytest.raises(ValueError):
            AdaptationConfig(triggers=frozenset(("sideways",)))
        with pytest.raises(ValueError):
            AdaptationConfig(ancestor_level=-1)
        with pytest.raises(ValueError):
            AdaptationConfig(algorithm_order=("weighted", "fuzzy"))

    def test_dict_round_trip_interval(self):
        cfg = AdaptationConfig(
            algorithm="simple",
            threshold=(0.5, 0.9),
            last_chosen=0.72,
            labeler=Labeler(use_element_name=True, use_class_attribute=True),
            ancestor_level=3,
            triggers=frozenset(("top_down", "process_flow")),
            update_stored=False,
            algorithm_order=("simple", "weighted"),
            cascade_opt_out=True,
        )
        assert AdaptationConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_constant(self):
        cfg = AdaptationConfig(threshold=0.65)
        d = cfg.to_dict()
        assert d["threshold"] == {"constant": 0.65}
        assert AdaptationConfig.from_dict(d) == cfg


class TestStoredExample:
    def test_residual_must_resolve(self):
        node = resolve(PAGE, (0, 0))
        with pytest.raises(ValueError):
            StoredExample(subtree=node, residual_path=(5,))

    def test_target_walks_residual(self):
        ex = capture_example(PAGE, (0, 0, 1), ancestor_level=1)
        assert resolve(ex.subtree, ex.residual_path).attributes["class"] == "price"

    def test_dict_round_trip(self):
        ex = capture_example(PAGE, (0, 0), captured_at="2026-01-05T00:00:00+00:00")
        back = StoredExample.from_dict(ex.to_dict())
        assert back == ex

    def test_html_is_canonical_serialization(self):
        ex = capture_example(PAGE, (0, 0))
        assert ex.to_dict()["html"] == serialize(ex.subtree)


class TestCaptureExample:
    def test_nonleaf_defaults_to_level_zero(self):
        ex = capture_example(PAGE, (0, 0))
        assert ex.subtree.label == "div"
        assert ex.residual_path == ()
        assert ex.captured_from == "page-1"

    def test_leaf_defaults_to_level_two(self):
        ex = capture_example(PAGE, (0, 0, 0))
        assert ex.subtree.label == "body"
        assert ex.residual_path == (0, 0)
        assert resolve(ex.subtree, ex.residual_path).attributes["class"] == "name"

    def test_explicit_level(self):
        ex = capture_example(PAGE, (0, 0, 1), ancestor_level=1)
        assert ex.subtree.label == "div"
        assert ex.residual_path == (1,)

    def test_level_clamps_at_root(self):
        ex = capture_example(PAGE, (0,), ancestor_level=9)
        assert ex.subtree.label == "html"
        assert ex.residual_path == (0,)

    def test_unresolvable_target(self):
        with pytest.raises(PathError):
            capture_example(PAGE, (4, 4, 4))

    def test_detached_copy_does_not_alias_page(self):
        ex = capture_example(PAGE, (0, 0))
        ex.subtree.children[0].attributes["class"] = "mutated"
        assert resolve(PAGE, (0, 0, 0)).attributes["class"] == "name"


class TestRuleAndWrapper:
    def test_rule_name_validation(self):
        with pytest.raises(ValueError):
            Rule(name="", plan=plan())
        with pytest.raises(ValueError):
            Rule(name="a/b", plan=plan())

    def test_duplicate_child_names(self):
        kids = (Rule(name="x", plan=plan()), Rule(name="x", plan=plan()))
        with pytest.raises(ValueError):
            Rule(name="r", plan=plan(), children=kids)

    def test_wrapper_version_validation(self):
        with pytest.raises(ValueError):
            Wrapper(name="w", version=0)

    def test_duplicate_root_names(self):
        rules = (Rule(name="a", plan=plan()), Rule(name="a", plan=plan()))
        with pytest.raises(ValueError):
            Wrapper(name="w", root_rules=rules)

    def test_adaptation_requires_constraints(self):
        rule = Rule(name="r", plan=plan(), adaptation=AdaptationConfig())
        with pytest.raises(ValueError):
            Wrapper(name="w", root_rules=(rule,))

    def test_wrapper_level_constraints_satisfy_the_invariant(self):
        rule = Rule(name="r", plan=plan(), adaptation=AdaptationConfig())
        w = Wrapper(name="w", root_rules=(rule,), constraints=(CardinalityConstraint(1, 1),))
        assert w.effective_constraints(rule) == (CardinalityConstraint(1, 1),)

    def test_rule_constraints_override_wrapper_level(self):
        rule = Rule(name="r", plan=plan(), constraints=(CardinalityConstraint(1, None),))
        w = Wrapper(name="w", root_rules=(rule,), constraints=(CardinalityConstraint(1, 1),))
        assert w.effective_constraints(rule) == (CardinalityConstraint(1, None),)

    def test_iter_rules_paths(self):
        w = sample_wrapper()
        assert [p for p, _ in w.iter_rules()] == ["record", "record/price"]

    def test_find_rule(self):
        w = sample_wrapper()
        assert w.find_rule("record/price").name == "price"
        with pytest.raises(KeyError):
            w.find_rule("record/title")

    def test_map_rules_paths_and_children(self):
        w = sample_wrapper()
        seen = []

        def fn(path, rule):
            seen.append(path)
            # the children fn gives are replaced by the mapped ones
            return replace(rule, plan=plan("//p", "positional"), children=())

        mapped = w.map_rules(fn)
        assert seen == ["record", "record/price"]
        assert [p for p, _ in mapped.iter_rules()] == ["record", "record/price"]
        assert {r.plan.best.to_string() for _, r in mapped.iter_rules()} == {"//p"}
        assert (mapped.name, mapped.version, mapped.constraints) == (
            w.name,
            w.version,
            w.constraints,
        )
        # the input is left alone, and the identity map changes nothing
        assert wrapper_json(w) == wrapper_json(sample_wrapper())
        assert wrapper_json(w.map_rules(lambda _, rule: rule)) == wrapper_json(w)


def assert_schema_rejects(d, path, expected):
    """wrapper_from_dict raises WrapperFormatError naming the JSON path of
    the failure and what the schema expected there, on a first and a
    repeated call."""
    for _ in range(2):
        with pytest.raises(WrapperFormatError) as got:
            wrapper_from_dict(d)
        assert str(got.value) == "schema violation at %s: expected %s" % (path, expected)


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        w = sample_wrapper()
        path = tmp_path / "shop.json"
        save_wrapper(w, path)
        assert load_wrapper(path) == w

    def test_dict_round_trip(self):
        w = sample_wrapper()
        assert wrapper_from_dict(w.to_dict()) == w

    def test_compiled_parts_stay_out_of_equality_and_dicts(self):
        # patterns compile once and plans expand their attempts once, beside
        # the fields: a wrapper that has run equals, hashes and writes as
        # a fresh one
        ran, fresh = sample_wrapper(), sample_wrapper()
        execute_wrapper(ran, ExecutionContext(pages=(PAGE,)))
        assert ran == fresh
        assert hash(ran.root_rules[0].plan) == hash(fresh.root_rules[0].plan)
        assert ran.to_dict() == fresh.to_dict()
        typed = DatatypeConstraint(datatype="pattern", pattern="[a-z]+")
        assert hash(typed) == hash(DatatypeConstraint(datatype="pattern", pattern="[a-z]+"))
        assert typed.to_dict() == {"kind": "datatype", "datatype": "pattern", "pattern": "[a-z]+"}
        assert typed.admits("abc") and not typed.admits("abc1")

    def test_json_text_is_stable(self):
        w = sample_wrapper()
        text = wrapper_json(w)
        assert text.endswith("\n")
        assert text == wrapper_json(wrapper_from_dict(json.loads(text)))

    def test_rule_json_carries_flat_plan_keys(self):
        d = sample_wrapper().to_dict()
        rule = d["rules"][0]
        assert rule["xpath_best"] == {"expr": "//div[@id='rec']", "tag": "id"}
        assert rule["xpath_fallbacks"][0]["tag"] == "structural"

    def test_schema_rejects_missing_name(self):
        d = sample_wrapper().to_dict()
        del d["name"]
        assert_schema_rejects(d, "$", "keys 'name', 'rules', 'version'")

    def test_schema_rejects_bad_version(self):
        d = sample_wrapper().to_dict()
        d["version"] = 0
        assert_schema_rejects(d, "$.version", "an integer, minimum 1")

    def test_schema_rejects_unknown_keys(self):
        d = sample_wrapper().to_dict()
        d["surprise"] = True
        assert_schema_rejects(d, "$", "no key 'surprise'")

    def test_schema_rejects_bad_constraint_kind(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["constraints"] = [{"kind": "parity"}]
        # no branch's kind matches, so the kinds are what was expected
        assert_schema_rejects(
            d, "$.rules[0].constraints[0].kind", "'cardinality' or 'datatype'"
        )

    def test_schema_rejects_a_bound_of_the_kinds_own_branch(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["constraints"] = [{"kind": "cardinality", "min": "x"}]
        # the kind picks the branch whose failure is reported
        assert_schema_rejects(d, "$.rules[0].constraints[0].min", "an integer, minimum 0")

    def test_schema_rejects_slash_in_rule_name(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["name"] = "a/b"
        assert_schema_rejects(
            d, "$.rules[0].name", "a string, minLength 1, pattern '^[^/]+$'"
        )

    def test_schema_rejects_bad_occurrence(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["template"]["occurrence"] = "sometimes"
        assert_schema_rejects(
            d,
            "$.rules[0].template.occurrence",
            "'exactly_one' or 'optional' or 'one_or_more' or 'zero_or_more'",
        )

    def test_schema_rejects_malformed_threshold(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["adaptation"]["threshold"] = {"constant": 0.5, "low": 0.1}
        # neither branch holds a const: both failures are at the threshold
        assert_schema_rejects(
            d, "$.rules[0].adaptation.threshold", "no key 'low' or keys 'high', 'low'"
        )

    def test_schema_rejects_a_float_in_a_residual_path(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["stored_example"]["residual_path"] = [0.0]
        assert_schema_rejects(
            d, "$.rules[0].stored_example.residual_path[0]", "an integer, minimum 0"
        )

    def test_schema_rejects_integral_floats(self):
        d = sample_wrapper().to_dict()
        d["rules"][0]["xpath_fallbacks"][0]["priority"] = 20.0
        assert_schema_rejects(d, "$.rules[0].xpath_fallbacks[0].priority", "an integer")
        d = sample_wrapper().to_dict()
        d["rules"][0]["constraints"][0]["min"] = 1.0
        assert_schema_rejects(d, "$.rules[0].constraints[0].min", "an integer, minimum 0")

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_schema_rejects_non_finite_numbers(self, text):
        d = json.loads(wrapper_json(sample_wrapper()).replace(
            '"last_chosen": null', '"last_chosen": %s' % text, 1
        ))
        assert_schema_rejects(
            d, "$.rules[0].adaptation.last_chosen", "a finite number or null"
        )

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(WrapperFormatError):
            load_wrapper(path)

    def test_semantic_errors_become_format_errors(self):
        # schema-clean but violates the adaptation/constraints invariant
        d = sample_wrapper().to_dict()
        d["rules"][0]["constraints"] = []
        d["rules"][0]["children"] = []
        with pytest.raises(WrapperFormatError):
            wrapper_from_dict(d)

    def test_bad_pattern_is_a_format_error(self):
        with pytest.raises(ValueError, match="bad pattern"):
            DatatypeConstraint(datatype="pattern", pattern="[")
        d = sample_wrapper().to_dict()
        d["rules"][0]["constraints"].append(
            {"kind": "datatype", "datatype": "pattern", "pattern": "["}
        )
        with pytest.raises(WrapperFormatError, match="bad pattern"):
            wrapper_from_dict(d)


def unloadable_plan():
    """A plan built step by step around an element name the locator
    grammar cannot spell, so its file text does not load back."""
    names = ("html", "body", "o section", "span")
    return FallbackPlan(best=XPathExpr(steps=tuple(Step("child", n) for n in names)))


def unloadable_wrapper():
    """A wrapper whose file text does not load back."""
    plan = unloadable_plan()
    assert plan.best.to_string() == "/html/body/o section/span"
    return Wrapper(
        name="prefixed",
        root_rules=(
            Rule(name="first", plan=plan, constraints=(CardinalityConstraint(1, None),)),
        ),
    )


@pytest.mark.parametrize(
    "html, target, best",
    [
        # a prefixed name the tokenizer reads
        (
            "<html><body><o:section><div><span>a</span></div>"
            "<div><span>b</span></div></o:section></body></html>",
            (0, 0, 0, 0),
            "/html/body/o:section/div[1]/span",
        ),
        # html.parser keeps the vertical tab and what follows in the name
        (
            '<html><body><ul\vclass="nav"><li>a</li><li>b</li></ul\vclass="nav">'
            "<ul><li>c</li></ul></body></html>",
            (0, 0, 1),
            "/html/body/*[1]/li[2]",
        ),
    ],
    ids=["prefixed", "vertical_tab"],
)
def test_generated_plans_load_back(html, target, best):
    page = parse_html(html)
    plan = generate_plan(page, target)
    assert plan.best.to_string() == best
    wrapper = Wrapper(
        name="names",
        root_rules=(
            Rule(name="first", plan=plan, constraints=(CardinalityConstraint(1, None),)),
        ),
    )
    loaded = wrapper_from_dict(json.loads(wrapper_json(wrapper)))
    assert loaded == wrapper
    located = loaded.root_rules[0].plan
    for expr in [located.best] + [e.expr for e in located.fallbacks]:
        assert evaluate(expr, page) == [target]


def test_save_refuses_text_that_does_not_load_back(tmp_path):
    path = tmp_path / "prefixed.json"
    with pytest.raises(WrapperFormatError, match="expected step separator"):
        save_wrapper(unloadable_wrapper(), path)
    assert not path.exists()
