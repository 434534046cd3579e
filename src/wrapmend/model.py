"""Wrapper data model: hierarchical rules, constraints, adaptation config.

A wrapper is a named, versioned tree of rules.  Each rule carries a
locator plan, integrity constraints (possibly inherited from the wrapper
level), and optionally the machinery that makes it self-repairing: an
adaptation config, a stored example subtree, and a learned template.

Wrapper values are immutable by convention: execution never mutates one,
adaptation builds a new value with a bumped version.  The JSON file
format is pinned by schema/wrapper-v1.schema.json, shipped with the
package and enforced on load: a file the format checks below certify is
built directly, and any other is judged and worded by jsonschema, which
is imported only then.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from wrapmend.dom import (
    DomNode,
    DomTree,
    ancestor,
    detach_subtree,
    parse_snippet,
    resolve,
    serialize,
)
from wrapmend.constraints import DATATYPES, constraint_from_dict
from wrapmend.matching import DEFAULT_LABELER, Labeler
from wrapmend.template import OCCURRENCES, TreeTemplate
from wrapmend.xpath import FallbackPlan


class WrapperFormatError(ValueError):
    """A wrapper file that does not conform to the shipped schema."""


TRIGGERS = ("top_down", "bottom_up", "process_flow")
ALGORITHMS = ("simple", "weighted")


@dataclass(frozen=True)
class AdaptationConfig:
    """Per-rule knobs for the self-repair pipeline.

    threshold is either a constant or a (low, high) interval the search
    may move within; last_chosen records where the previous adaptation
    settled.  ancestor_level is kept in the file, but nothing reads it:
    a repair re-anchors the stored example at the matched subtree and
    keeps its residual path.
    """

    algorithm: str = "weighted"
    threshold: object = (0.4, 0.95)
    last_chosen: Optional[float] = None
    labeler: Labeler = DEFAULT_LABELER
    ancestor_level: Optional[int] = None
    triggers: frozenset = frozenset()
    update_stored: bool = True
    algorithm_order: tuple = ()
    cascade_opt_out: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % (self.algorithm,))
        thr = self.threshold
        if isinstance(thr, (int, float)) and not isinstance(thr, bool):
            thr = float(thr)
            if not 0.0 <= thr <= 1.0:
                raise ValueError("threshold %r outside [0, 1]" % (thr,))
        else:
            low, high = thr
            low, high = float(low), float(high)
            if not 0.0 <= low <= high <= 1.0:
                raise ValueError("bad threshold interval (%r, %r)" % (low, high))
            thr = (low, high)
        object.__setattr__(self, "threshold", thr)
        triggers = frozenset(self.triggers)
        unknown = triggers - set(TRIGGERS)
        if unknown:
            raise ValueError("unknown triggers %s" % (sorted(unknown),))
        object.__setattr__(self, "triggers", triggers)
        order = tuple(self.algorithm_order)
        for name in order:
            if name not in ALGORITHMS:
                raise ValueError("unknown algorithm %r in order" % (name,))
        object.__setattr__(self, "algorithm_order", order)
        if self.ancestor_level is not None and self.ancestor_level < 0:
            raise ValueError("ancestor_level must be non-negative")

    @property
    def interval(self) -> tuple:
        thr = self.threshold
        if isinstance(thr, tuple):
            return thr
        return (thr, thr)

    def algorithms(self) -> tuple:
        """Algorithms in trial order."""
        return self.algorithm_order or (self.algorithm,)

    def to_dict(self) -> dict:
        thr = self.threshold
        if isinstance(thr, tuple):
            tdict = {"low": thr[0], "high": thr[1]}
        else:
            tdict = {"constant": thr}
        return {
            "algorithm": self.algorithm,
            "threshold": tdict,
            "last_chosen": self.last_chosen,
            "labeler": self.labeler.to_dict(),
            "ancestor_level": self.ancestor_level,
            "triggers": sorted(self.triggers),
            "update_stored": self.update_stored,
            "algorithm_order": list(self.algorithm_order),
            "cascade_opt_out": self.cascade_opt_out,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdaptationConfig":
        tdict = d["threshold"]
        if "constant" in tdict:
            threshold = float(tdict["constant"])
        else:
            threshold = (float(tdict["low"]), float(tdict["high"]))
        return cls(
            algorithm=d["algorithm"],
            threshold=threshold,
            last_chosen=d.get("last_chosen"),
            labeler=Labeler.from_dict(d.get("labeler", {})),
            ancestor_level=d.get("ancestor_level"),
            triggers=frozenset(d.get("triggers", ())),
            update_stored=d.get("update_stored", True),
            algorithm_order=tuple(d.get("algorithm_order", ())),
            cascade_opt_out=d.get("cascade_opt_out", False),
        )


@dataclass
class StoredExample:
    """A captured result subtree plus where the target sits inside it.

    For leaf targets the subtree is rooted a few ancestors up so that
    similarity search has context to work with; residual_path walks from
    the stored root back down to the actual target.
    """

    subtree: DomNode
    residual_path: tuple = ()
    captured_from: str = ""
    captured_at: str = ""

    def __post_init__(self):
        self.residual_path = tuple(self.residual_path)
        try:
            resolve(self.subtree, self.residual_path)
        except LookupError:
            raise ValueError(
                "residual_path %r does not resolve inside the stored subtree"
                % (self.residual_path,)
            )

    def target(self) -> DomNode:
        return resolve(self.subtree, self.residual_path)

    def to_dict(self) -> dict:
        return {
            "html": serialize(self.subtree),
            "residual_path": list(self.residual_path),
            "captured_from": self.captured_from,
            "captured_at": self.captured_at,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StoredExample":
        return cls(
            subtree=parse_snippet(d["html"]),
            residual_path=tuple(d.get("residual_path", ())),
            captured_from=d.get("captured_from", ""),
            captured_at=d.get("captured_at", ""),
        )


@dataclass
class Rule:
    name: str
    plan: FallbackPlan
    constraints: tuple = ()
    adaptation: Optional[AdaptationConfig] = None
    stored_example: Optional[StoredExample] = None
    template: Optional[TreeTemplate] = None
    children: tuple = ()  # evaluated relative to each match of this rule

    def __post_init__(self):
        if not self.name or "/" in self.name:
            raise ValueError("bad rule name %r" % (self.name,))
        self.constraints = tuple(self.constraints)
        self.children = tuple(self.children)
        names = [c.name for c in self.children]
        if len(names) != len(set(names)):
            raise ValueError("duplicate child rule names under %r" % (self.name,))

    def to_dict(self) -> dict:
        d = {"name": self.name}
        d.update(self.plan.to_dict())
        d["constraints"] = [c.to_dict() for c in self.constraints]
        d["adaptation"] = self.adaptation.to_dict() if self.adaptation else None
        d["stored_example"] = (
            self.stored_example.to_dict() if self.stored_example else None
        )
        d["template"] = self.template.to_dict() if self.template else None
        d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Rule":
        return cls(
            name=d["name"],
            plan=FallbackPlan.from_dict(d),
            constraints=tuple(
                constraint_from_dict(c) for c in d.get("constraints", ())
            ),
            adaptation=(
                AdaptationConfig.from_dict(d["adaptation"])
                if d.get("adaptation")
                else None
            ),
            stored_example=(
                StoredExample.from_dict(d["stored_example"])
                if d.get("stored_example")
                else None
            ),
            template=(
                TreeTemplate.from_dict(d["template"]) if d.get("template") else None
            ),
            children=tuple(cls.from_dict(c) for c in d.get("children", ())),
        )


@dataclass
class Wrapper:
    name: str
    version: int = 1
    root_rules: tuple = ()
    constraints: tuple = ()  # wrapper-level defaults, inherited by rules

    def __post_init__(self):
        if not self.name:
            raise ValueError("wrapper name must be non-empty")
        if not isinstance(self.version, int) or self.version < 1:
            raise ValueError("version must be an integer >= 1")
        self.root_rules = tuple(self.root_rules)
        self.constraints = tuple(self.constraints)
        names = [r.name for r in self.root_rules]
        if len(names) != len(set(names)):
            raise ValueError("duplicate root rule names")
        for path, rule in self.iter_rules():
            # a violated constraint is what triggers repair, so a rule
            # that can adapt must have something to violate
            if rule.adaptation is not None and not self.effective_constraints(rule):
                raise ValueError(
                    "rule %r has adaptation configured but no constraints" % (path,)
                )

    def iter_rules(self):
        """Yield ("parent/child" path, Rule) pairs, depth first."""

        def walk(rules, prefix):
            for rule in rules:
                path = prefix + "/" + rule.name if prefix else rule.name
                yield path, rule
                yield from walk(rule.children, path)

        yield from walk(self.root_rules, "")

    def map_rules(self, fn) -> "Wrapper":
        """The wrapper with each rule replaced by fn("parent/child" path,
        rule), called depth first as iter_rules yields.  A replacement
        keeps the mapped children of the rule it replaced, whatever
        children fn gave it."""

        def walk(rule, path):
            new = fn(path, rule)
            kids = tuple(walk(c, path + "/" + c.name) for c in rule.children)
            return replace(new, children=kids)

        return replace(self, root_rules=tuple(walk(r, r.name) for r in self.root_rules))

    def find_rule(self, path: str) -> Rule:
        for candidate, rule in self.iter_rules():
            if candidate == path:
                return rule
        raise KeyError(path)

    def effective_constraints(self, rule: Rule) -> tuple:
        """Rule-level constraints, falling back to the wrapper defaults."""
        return rule.constraints if rule.constraints else self.constraints

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "constraints": [c.to_dict() for c in self.constraints],
            "rules": [r.to_dict() for r in self.root_rules],
        }


def capture_example(
    tree: DomTree, target, ancestor_level: Optional[int] = None, captured_at: str = ""
) -> StoredExample:
    """Capture the subtree a rule should remember for similarity search.

    Leaf targets store the tree rooted ancestor_level levels up (default
    2) with a residual path back down; non-leaf targets default to the
    target subtree itself.  Levels clamp at the root.
    """
    node = resolve(tree, target)
    if ancestor_level is None:
        ancestor_level = 2 if not node.children else 0
    _, anc_node, residual = ancestor(tree, tuple(target), ancestor_level)
    return StoredExample(
        subtree=detach_subtree(anc_node),
        residual_path=residual,
        captured_from=tree.source_id,
        captured_at=captured_at,
    )


_validator_cache = None


def _validator():
    """The shipped schema's validator, imported, built and
    metaschema-checked on first use; a process that only accepts
    wrappers never uses it."""
    global _validator_cache
    if _validator_cache is None:
        from jsonschema.validators import validator_for

        text = (
            resources.files("wrapmend")
            .joinpath("schema/wrapper-v1.schema.json")
            .read_text("utf-8")
        )
        schema = json.loads(text)
        cls = validator_for(schema)
        cls.check_schema(schema)
        _validator_cache = cls(schema)
    return _validator_cache


# Rules and templates may nest this many levels, a rule's template one
# level below the rule: deeper files are refused before anything recurses.
MAX_NESTING = 100

# The format checks: one table per $def of the schema, naming each field
# once with its check; a check says yes only when the value certainly
# matches.  They are stricter in places (an integer must be an int, so 1.0
# is left to the schema), which only sends a file to the validator; they
# are never looser, and never raise.


def _object(fields: dict, required=()):
    """A check for a JSON object: yes only for a dict that holds every
    required key, and whose every key is a field whose check passes.
    The check keeps `fields` and `required`, to be held to the schema."""
    required = frozenset(required)

    def check(d) -> bool:
        if not isinstance(d, dict) or not d.keys() >= required:
            return False
        for k, v in d.items():
            field_check = fields.get(k)
            if field_check is None or not field_check(v):
                return False
        return True

    check.fields = fields
    check.required = required
    return check


def _is(*types):
    # exact types: a bool is not a number here
    return lambda v: type(v) in types


def _int_from(minimum):
    return lambda v: type(v) is int and v >= minimum


def _one_of(choices):
    return lambda v: isinstance(v, str) and v in choices


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _or_null(check):
    return lambda v: v is None or check(v)


def _string(v) -> bool:
    return isinstance(v, str)


def _text(v) -> bool:
    return isinstance(v, str) and v != ""


def _unit(v) -> bool:
    return _number(v) and 0 <= v <= 1


_boolean, _number, _count = _is(bool), _is(int, float), _int_from(0)

_cardinality = _object(
    {"kind": lambda v: v == "cardinality", "min": _count, "max": _or_null(_count)},
    ("kind", "min"),
)
_datatype = _object(
    {
        "kind": lambda v: v == "datatype",
        "datatype": _one_of(DATATYPES),
        "pattern": _or_null(_string),
    },
    ("kind", "datatype"),
)


def _constraint(c) -> bool:
    return _cardinality(c) or _datatype(c)


_plan_entry = _object(
    {"expr": _text, "tag": _text, "priority": _is(int)}, ("expr", "tag", "priority")
)
_constant = _object({"constant": _unit}, ("constant",))
_interval = _object({"low": _unit, "high": _unit}, ("low", "high"))
_labeler = _object(
    {"element_name": _boolean, "id_attribute": _boolean, "class_attribute": _boolean}
)
_triggers = _list_of(_one_of(TRIGGERS))
_adaptation = _object(
    {
        "algorithm": _one_of(ALGORITHMS),
        "threshold": lambda v: _constant(v) or _interval(v),
        "last_chosen": _or_null(_number),
        "labeler": _labeler,
        "ancestor_level": _or_null(_count),
        "triggers": lambda v: _triggers(v) and len(set(v)) == len(v),
        "update_stored": _boolean,
        "algorithm_order": _list_of(_one_of(ALGORITHMS)),
        "cascade_opt_out": _boolean,
    },
    ("algorithm", "threshold"),
)
_stored_example = _object(
    {
        "html": _text,
        "residual_path": _list_of(_count),
        "captured_from": _string,
        "captured_at": _string,
    },
    ("html", "residual_path"),
)
# one template node and one rule node: _nested hands over their children
# and a rule's template
_template = _object(
    {
        "label": _text,
        "occurrence": _one_of(OCCURRENCES),
        "depth_optional": _boolean,
        "children": _is(list),
    },
    ("label", "occurrence"),
)
_rule = _object(
    {
        "name": lambda v: _text(v) and "/" not in v,
        "xpath_best": _object({"expr": _text, "tag": _text}, ("expr",)),
        "xpath_fallbacks": _list_of(_plan_entry),
        "constraints": _list_of(_constraint),
        "adaptation": _or_null(_adaptation),
        "stored_example": _or_null(_stored_example),
        "template": _or_null(_is(dict)),
        "children": _is(list),
    },
    ("name", "xpath_best"),
)
_file = _object(
    {
        "name": _text,
        "version": _int_from(1),
        "constraints": _list_of(_constraint),
        "rules": _is(list),
    },
    ("name", "version", "rules"),
)


def _nested(d):
    """Yield (check, value, depth) for every rule and template value in
    the file dict d, each before what it holds, without recursion.  check
    is _rule or _template; a top-level rule has depth 1.  Values of any
    type are yielded, so the depth is the one the schema would recurse to."""
    rules = d.get("rules") if isinstance(d, dict) else None
    stack = [(_rule, r, 1) for r in rules] if isinstance(rules, list) else []
    while stack:
        check, value, depth = stack.pop()
        yield check, value, depth
        if not isinstance(value, dict):
            continue
        children = value.get("children")
        if isinstance(children, list):
            stack.extend((check, c, depth + 1) for c in children)
        template = value.get("template") if check is _rule else None
        if isinstance(template, dict):
            stack.append((_template, template, depth + 1))


def _conforms(d) -> bool:
    """True only when d certainly matches the schema and nests no deeper
    than MAX_NESTING."""
    return _file(d) and all(
        depth <= MAX_NESTING and check(v) for check, v, depth in _nested(d)
    )


def wrapper_to_dict(wrapper: Wrapper) -> dict:
    return wrapper.to_dict()


def wrapper_from_dict(d: dict) -> Wrapper:
    """Build a Wrapper from its file dict.  One the format checks do not
    certify is refused when it nests too deep, and otherwise goes to the
    schema validator, whose first error is the message."""
    if not _conforms(d):
        depth = max((depth for _, _, depth in _nested(d)), default=0)
        if depth > MAX_NESTING:
            raise WrapperFormatError(
                "rules and templates nest %d deep, more than %d" % (depth, MAX_NESTING)
            )
        from jsonschema.exceptions import best_match

        error = best_match(_validator().iter_errors(d))
        if error is not None:
            raise WrapperFormatError("schema violation: %s" % (error.message,))
    try:
        return Wrapper(
            name=d["name"],
            version=d["version"],
            root_rules=tuple(Rule.from_dict(r) for r in d.get("rules", ())),
            constraints=tuple(
                constraint_from_dict(c) for c in d.get("constraints", ())
            ),
        )
    except ValueError as e:
        raise WrapperFormatError(str(e))


def wrapper_json(wrapper: Wrapper) -> str:
    """Canonical file text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(wrapper_to_dict(wrapper), indent=2, sort_keys=True) + "\n"


def save_wrapper(wrapper: Wrapper, path) -> None:
    """Write the wrapper's file text, which must load back: otherwise
    WrapperFormatError is raised before the file is opened."""
    text = wrapper_json(wrapper)
    wrapper_from_dict(json.loads(text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_wrapper(path) -> Wrapper:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise WrapperFormatError("not valid JSON: %s" % (e,))
    return wrapper_from_dict(d)
