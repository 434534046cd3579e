"""The accept-only format check in front of jsonschema.

wrapper_from_dict builds a dict that model._conforms certifies without
asking jsonschema.  _conforms is the shipped schema compiled at import.
It may be stricter than the schema, which only sends a dict to the
validator, but never looser, and it never raises.  These tests hold it
to that against the shipped schema on generated, corpus and hand-built
wrappers, on one-field mutations of them and on hypothesis-generated
JSON values, and check that edits to the schema carry into the check.
They also check the nesting bound and that accepting a wrapper never
imports jsonschema.
"""

import copy
import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

import wrapmend.model as model
from conftest import random_wrapper
from test_model import sample_wrapper
from wrapmend.constraints import DATATYPES
from wrapmend.corpus import (
    DEFAULT_RATE,
    SCENARIOS,
    author_wrapper,
    generate_page,
    with_algorithm,
)
from wrapmend.dom import parse_html, serialize
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.model import (
    ALGORITHMS,
    MAX_NESTING,
    TRIGGERS,
    WrapperFormatError,
    wrapper_from_dict,
    wrapper_json,
)
from wrapmend.mutate import OPERATIONS, MutationSpec, mutate_tree
from wrapmend.repo import CorruptionError, StorageError, WrapperStore
from wrapmend.template import OCCURRENCES

SCHEMA = json.loads(
    resources.files("wrapmend")
    .joinpath("schema/wrapper-v1.schema.json")
    .read_text("utf-8")
)


@functools.cache
def corpus_wrappers() -> tuple:
    """An authored corpus wrapper and the one a repair of it wrote back,
    with a template and regenerated plans."""
    page = parse_html(generate_page(random.Random(0)))
    authored = author_wrapper(page)
    spec = MutationSpec(operations=OPERATIONS, seed=500, rate=DEFAULT_RATE)
    damaged, _ = mutate_tree(page, spec)
    _, _, repaired = execute_wrapper(
        authored, ExecutionContext(pages=(parse_html(serialize(damaged)),))
    )
    assert any(r.template is not None for _, r in repaired.iter_rules())
    return authored, repaired


# The case of each scenario whose run writes a wrapper back, seeded as
# build_corpus seeds it; mixed case 9 writes a depth_optional template.
# Runs of wrapped, flattened and shuffled pages keep their authored
# locators at the corpus rate and write nothing back, so they have none.
REPAIRED_CASES = {"relabel": 0, "attribute_loss": 0, "duplicated": 0, "mixed": 9}


@functools.cache
def scenario_wrappers() -> tuple:
    """Each scenario's written-back wrapper under each algorithm."""
    wrappers = []
    for index, (scenario, operations) in enumerate(SCENARIOS):
        if scenario not in REPAIRED_CASES:
            continue
        seed = index * 1000 + REPAIRED_CASES[scenario]
        page = parse_html(generate_page(random.Random(seed)))
        spec = MutationSpec(operations=operations, seed=seed + 500, rate=DEFAULT_RATE)
        damaged = parse_html(serialize(mutate_tree(page, spec)[0]))
        for algorithm in ALGORITHMS:
            authored = with_algorithm(author_wrapper(page), algorithm)
            _, _, repaired = execute_wrapper(
                authored, ExecutionContext(pages=(damaged,))
            )
            wrappers.append(repaired)
    return tuple(wrappers)


def outcome(d):
    try:
        return ("ok", wrapper_json(wrapper_from_dict(d)))
    except Exception as e:  # the outcome, whatever it is, is what is compared
        return (type(e).__name__, str(e))


def schema_first(d):
    """wrapper_from_dict's outcome when every dict goes to jsonschema."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_conforms", lambda d: False)
        return outcome(d)


def check(d) -> bool:
    """_conforms(d), held to the schema.  A dict it refuses takes the
    schema-first path anyway.  For one it accepts, the schema-first
    outcome carries jsonschema's verdict: equal outcomes mean the schema
    accepts d too, since the accept path never words a schema violation."""
    accepted = model._conforms(d)
    assert type(accepted) is bool
    if accepted:
        assert outcome(d) == schema_first(d), d
    return accepted


def places(d):
    """(container, key) for every value inside a JSON value, each
    container before what it holds."""
    out, stack = [], [d]
    while stack:
        value = stack.pop()
        keys = value.keys() if isinstance(value, dict) else range(len(value))
        for k in keys:
            out.append((value, k))
            if isinstance(value[k], (dict, list)):
                stack.append(value[k])
    return out


# wrong types, a bool for a number, 1.0 for an integer, NaN, out-of-range
# numbers, empty and slashed strings, and unhashable values
REPLACEMENTS = (
    None, True, False, 0, -1, 1.0, 2.5, float("nan"), "", "a/b", [], ["top_down"], {},
)
EXTRA_KEYS = (("surprise", 1), ("low", 0.5), ("constant", 0.5))


def one_field_mutants(d):
    """Yield d mutated in place at one place at a time, restoring it in
    between: each replacement value, the key removed, an extra key, and a
    list's first item doubled."""
    for container, key in places(d):
        original = container[key]
        for value in REPLACEMENTS:
            if type(value) is type(original) and value == original:
                continue  # no mutation
            container[key] = value
            yield d
        if isinstance(container, dict):
            del container[key]
            yield d
        container[key] = original
    for value in [d] + [c[k] for c, k in places(d)]:
        if isinstance(value, dict):
            for key, extra in EXTRA_KEYS:
                old = value.get(key, value)
                value[key] = extra
                yield d
                if old is value:
                    del value[key]
                else:
                    value[key] = old
        elif isinstance(value, list) and value:
            value.append(value[0])
            yield d
            value.pop()


def property_names(schema) -> list:
    names, stack = set(), [schema]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            names.update(value.get("properties", {}))
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return sorted(names)


# JSON values that now and then spell a valid piece of a wrapper
GENERATED = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(("cardinality", "datatype", "pattern", "weighted", "top_down",
                       "exactly_one", "//div", "a/b")),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(property_names(SCHEMA)) | st.text(max_size=2),
                      kids, max_size=4),
    max_leaves=12,
)


SAMPLE_TEXT = wrapper_json(sample_wrapper())


class TestConforms:
    def test_choices_are_the_schema_enums(self):
        defs = SCHEMA["$defs"]
        adaptation = defs["adaptation"]["properties"]
        assert tuple(adaptation["algorithm"]["enum"]) == ALGORITHMS
        assert tuple(adaptation["algorithm_order"]["items"]["enum"]) == ALGORITHMS
        assert tuple(adaptation["triggers"]["items"]["enum"]) == TRIGGERS
        datatype = defs["constraint"]["oneOf"][1]["properties"]["datatype"]
        assert tuple(datatype["enum"]) == DATATYPES
        assert tuple(defs["template"]["properties"]["occurrence"]["enum"]) == OCCURRENCES

    def test_schema_is_valid_under_its_metaschema(self):
        validator_for(SCHEMA).check_schema(SCHEMA)

    def test_library_wrappers_are_accepted(self):
        rng = random.Random(0xC0FFEE)
        wrappers = [random_wrapper(rng) for _ in range(40)]
        wrappers += [*corpus_wrappers(), sample_wrapper()]
        for w in wrappers:
            d = json.loads(wrapper_json(w))
            assert check(d)
            assert wrapper_from_dict(d) == w

    def test_one_field_mutants(self):
        accepted = refused = 0
        # written-back wrappers hold every $def an authored one does, and
        # the sample adds a constant threshold
        wrappers = (*scenario_wrappers(), sample_wrapper())
        texts = "".join(map(wrapper_json, wrappers))
        for shape in ('"depth_optional": true', '"one_or_more"', '"constant"', '"low"'):
            assert shape in texts
        assert any(type(r.adaptation.last_chosen) is float
                   for w in wrappers for _, r in w.iter_rules() if r.adaptation)
        for w in wrappers:
            d = json.loads(wrapper_json(w))
            for mutant in one_field_mutants(d):
                if check(mutant):
                    accepted += 1
                else:
                    refused += 1
            assert d == json.loads(wrapper_json(w))  # every mutation undone
        # both sides are exercised, so the comparisons above said something
        assert accepted > 1000 and refused > 10000

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(GENERATED, st.integers(min_value=0))
    def test_generated_values(self, value, where):
        d = json.loads(SAMPLE_TEXT)
        spots = places(d)
        if where % (len(spots) + 1) == len(spots):
            d = value
        else:
            container, key = spots[where % len(spots)]
            container[key] = value
        check(d)


def edited(edit) -> dict:
    """A copy of the shipped schema, changed by edit."""
    schema = copy.deepcopy(SCHEMA)
    edit(schema)
    return schema


def compiled(schema: dict):
    return model._compile(schema, schema["$defs"], {})


class TestCompile:
    """The check is derived from the schema file: an edit to the file
    changes what it says, and one it cannot state stops the compile."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["$defs"]["rule"]["required"].append("weight"),
            lambda s: s["$defs"]["adaptation"]["properties"]["algorithm"]["enum"]
            .remove("weighted"),
            lambda s: s["$defs"]["threshold"]["oneOf"][1]["properties"]["high"]
            .update(maximum=0.5),
        ],
        ids=["required_key", "enum_member", "maximum"],
    )
    def test_a_tightened_schema_refuses(self, edit):
        d = json.loads(wrapper_json(corpus_wrappers()[1]))
        assert compiled(SCHEMA)(d)
        schema = edited(edit)
        assert not validator_for(schema)(schema).is_valid(d)
        assert not compiled(schema)(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["$defs"]["rule"]["properties"]["children"].update(maxItems=3),
            lambda s: s["$defs"]["labeler"].update(additionalProperties={}),
            lambda s: s["$defs"]["adaptation"]["properties"]["algorithm"]["enum"]
            .append(1),
        ],
        ids=["unknown_keyword", "open_additional_properties", "numeric_enum"],
    )
    def test_what_it_cannot_state_stops_the_compile(self, edit):
        with pytest.raises(ValueError, match="no format check"):
            compiled(edited(edit))


def chain(depth: int, template_depth: int = 0, bad: bool = False) -> dict:
    """A wrapper file whose rules nest depth deep; the deepest rule holds a
    template nested template_depth deep, and bad adds an unknown key there."""
    template = None
    for _ in range(template_depth):
        template = {"label": "div||", "occurrence": "exactly_one",
                    "children": [template] if template else []}
    rule = {"name": "r%d" % depth, "xpath_best": {"expr": "./div"}, "template": template}
    if bad:
        rule["surprise"] = True
    for level in range(depth - 1, 0, -1):
        rule = {"name": "r%d" % level, "xpath_best": {"expr": "./div"}, "children": [rule]}
    return {"name": "deep", "version": 1, "rules": [rule]}


class TestNesting:
    @pytest.mark.parametrize("depth, template_depth", [(100, 0), (1, 99), (60, 40)])
    def test_at_the_bound_loads_and_round_trips(self, depth, template_depth):
        w = wrapper_from_dict(chain(depth, template_depth))
        text = wrapper_json(w)
        assert wrapper_from_dict(json.loads(text)) == w
        assert wrapper_json(wrapper_from_dict(json.loads(text))) == text

    @pytest.mark.parametrize("depth", [101, 200, 400])
    @pytest.mark.parametrize("bad", [False, True])
    def test_deeper_is_a_format_error(self, depth, bad):
        with pytest.raises(WrapperFormatError, match="nest %d deep" % depth):
            wrapper_from_dict(chain(depth, bad=bad))
        with pytest.raises(WrapperFormatError, match="nest %d deep" % depth):
            wrapper_from_dict(chain(depth - 50, template_depth=50, bad=bad))

    def test_deep_schema_violation_is_worded_by_the_schema(self):
        with pytest.raises(WrapperFormatError, match="schema violation"):
            wrapper_from_dict(chain(60, template_depth=40, bad=True))

    def test_store_refuses_and_reports_a_deep_wrapper(self, tmp_path):
        store = WrapperStore(tmp_path)
        deep = wrapper_from_dict(chain(MAX_NESTING))
        child = deep.root_rules[0]
        deeper = replace(deep, root_rules=(replace(child, name="r0", children=(child,)),))
        with pytest.raises(StorageError, match="nest 101 deep"):
            store.commit(deeper)
        assert not (tmp_path / "deep").exists()
        store.commit(deep)
        assert store.checkout("deep") == deep


ACCEPT_ONLY = """
import sys, wrapmend
from wrapmend.repo import WrapperStore
wrapmend.load_wrapper(sys.argv[1])
WrapperStore(sys.argv[2]).checkout("listing")
print(sorted(m for m in sys.modules if m.partition(".")[0] == "jsonschema"))
"""


def test_accepting_wrappers_never_imports_jsonschema(tmp_path):
    page = parse_html(generate_page(random.Random(7)))
    wrapper = author_wrapper(page)
    model.save_wrapper(wrapper, tmp_path / "wrapper.json")
    WrapperStore(tmp_path / "store").commit(wrapper)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", ACCEPT_ONLY, str(tmp_path / "wrapper.json"),
         str(tmp_path / "store")],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
