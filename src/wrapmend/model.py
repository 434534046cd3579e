"""Wrapper data model: hierarchical rules, constraints, adaptation config.

A wrapper is a named, versioned tree of rules.  Each rule carries a
locator plan, integrity constraints (possibly inherited from the wrapper
level), and optionally the machinery that makes it self-repairing: an
adaptation config, a stored example subtree, and a learned template.

Wrapper values are immutable by convention: execution never mutates one,
adaptation builds a new value with a bumped version.  The JSON file
format is stated once, in schema/wrapper-v1.schema.json, shipped with
the package.  At import the schema is compiled into an accept-only check:
a file it certifies is built directly, and any other is judged and
worded by jsonschema, which is imported only then.
"""

from __future__ import annotations

import functools
import json
import math
import re
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
from wrapmend.constraints import constraint_from_dict
from wrapmend.matching import DEFAULT_LABELER, Labeler
from wrapmend.template import TreeTemplate
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


_SCHEMA = json.loads(
    resources.files("wrapmend")
    .joinpath("schema/wrapper-v1.schema.json")
    .read_text("utf-8")
)
_validator_cache = None


def _validator():
    """The shipped schema's validator, imported, built and
    metaschema-checked on first use; a process that only accepts
    wrappers never uses it."""
    global _validator_cache
    if _validator_cache is None:
        from jsonschema.validators import validator_for

        cls = validator_for(_SCHEMA)
        cls.check_schema(_SCHEMA)
        _validator_cache = cls(_SCHEMA)
    return _validator_cache


# Rules and templates may nest this many levels, a rule's template one
# level below the rule: deeper files are refused before anything recurses.
MAX_NESTING = 100


def _nesting(d) -> int:
    """How deep rules and templates nest in the file dict d, counted level
    by level without recursion: a top-level rule is at depth 1, a rule's
    template one below it.  Items of any type count, so the depth is the
    one the schema would recurse to."""
    rules = d.get("rules") if isinstance(d, dict) else None
    level = [(r, True) for r in rules] if isinstance(rules, list) else []
    depth = 0
    while level:
        depth, below = depth + 1, []
        for value, is_rule in level:
            if isinstance(value, dict):
                children = value.get("children")
                if isinstance(children, list):
                    below += [(c, is_rule) for c in children]
                template = value.get("template") if is_rule else None
                if isinstance(template, dict):
                    below.append((template, False))
        level = below
    return depth


# The format check is the shipped schema compiled at import, one check per
# schema node.  A check says yes only when the value certainly matches its
# node, and never raises on a value that nests within MAX_NESTING.  It is
# stricter in places, which only sends a file to the validator: JSON types
# are exact (1.0 is not an integer, True is not a number, NaN is in no
# range), an object or array node refuses other types even without "type",
# and uniqueItems holds only for distinct strings.  A keyword the compiler
# cannot state exactly stops the import, as skipping it would be looser.

_TYPES = {
    "null": (type(None),),
    "boolean": (bool,),
    "integer": (int,),
    "number": (int, float),
    "string": (str,),
    "array": (list,),
    "object": (dict,),
}
_ANNOTATIONS = frozenset(("$schema", "$id", "$defs", "title", "description"))


def _compile(schema: dict, defs: dict, done: dict):
    """The check of one schema node.  defs are the schema's $defs, and
    done maps each def compiled so far to its check, None while it is
    being compiled."""
    keys = schema.keys() - _ANNOTATIONS
    get, sub = schema.get, lambda node: _compile(node, defs, done)
    if "$ref" in keys:
        name = schema["$ref"].removeprefix("#/$defs/")
        _expect(keys == {"$ref"} and name in defs, schema)
        if name not in done:
            done[name] = None
            done[name] = sub(defs[name])
        # only a def used inside itself is looked up when called
        return done[name] or (lambda v: done[name](v))
    if "oneOf" in keys:
        # "some branch says yes" is oneOf only while no value matches two
        # branches.  This schema's branches exclude each other: distinct
        # kind consts, disjoint required keys under additionalProperties
        # false, null beside an object; the differential tests hold it.
        check = functools.reduce(_either, map(sub, schema["oneOf"]))
        if keys == {"oneOf"}:
            return check
        rest = sub({k: schema[k] for k in keys - {"oneOf"}})
        return lambda v: rest(v) and check(v)
    if keys & {"properties", "required", "additionalProperties"}:
        _expect(
            keys <= {"type", "properties", "required", "additionalProperties"}
            and get("type", "object") == "object"
            and get("additionalProperties", False) is False,
            schema,
        )
        fields = {k: sub(v) for k, v in get("properties", {}).items()}
        required = frozenset(get("required", ()))
        return _object(fields, required, "additionalProperties" in keys)
    if keys & {"items", "uniqueItems"}:
        unique = get("uniqueItems", False)
        _expect(
            keys <= {"type", "items", "uniqueItems"}
            and get("type", "array") == "array"
            and type(unique) is bool,
            schema,
        )
        item = sub(get("items", {}))
        return lambda v: (
            type(v) is list
            and all(map(item, v))
            and (not unique or {type(x) for x in v} <= {str} and len(set(v)) == len(v))
        )
    if keys & {"enum", "const"}:
        choices = frozenset(schema["enum"] if "enum" in keys else [schema["const"]])
        # in Python 1 == 1.0 == True, in JSON they differ
        _expect(len(keys) == 1 and {type(c) for c in choices} <= {str}, schema)
        return lambda v: type(v) is str and v in choices
    _expect(keys <= {"type", "minimum", "maximum", "minLength", "pattern"}, schema)
    if not keys:
        return lambda v: True
    names = get("type", list(_TYPES))
    names = [names] if isinstance(names, str) else names
    return functools.reduce(_either, (_typed(name, schema) for name in names))


def _expect(holds: bool, schema: dict) -> None:
    if not holds:
        raise ValueError("no format check for %s" % (json.dumps(schema),))


def _either(a, b):
    if b is _null:  # the common "or null", one call shorter
        return lambda v: v is None or a(v)
    return lambda v: a(v) or b(v)


def _null(v) -> bool:
    return v is None


def _object(fields: dict, required: frozenset, closed: bool):
    if not (fields or closed):
        return lambda d: type(d) is dict and d.keys() >= required

    def check(d) -> bool:
        if type(d) is not dict or not d.keys() >= required:
            return False
        for k, v in d.items():
            field = fields.get(k)
            if field is None:
                if closed:
                    return False
            elif not field(v):
                return False
        return True

    return check


def _typed(name: str, schema: dict):
    """The check of one JSON type under the keywords that apply to it."""
    types, get = _TYPES[name], schema.get
    if name == "string":
        size, pattern = get("minLength", 0), get("pattern")
        _expect(type(size) is int, schema)
        if pattern is None:
            return lambda v: type(v) is str and len(v) >= size
        search = re.compile(pattern).search  # as jsonschema matches it
        return lambda v: type(v) is str and len(v) >= size and search(v) is not None
    if name in ("integer", "number"):
        low, high = get("minimum", -math.inf), get("maximum", math.inf)
        _expect({type(low), type(high)} <= {int, float}, schema)
        return lambda v: type(v) in types and low <= v <= high
    return _null if name == "null" else lambda v: type(v) in types


# The check of a whole wrapper file: wrapper_from_dict bounds the nesting
# before it calls it, and the differential tests replace it.
_conforms = _compile(_SCHEMA, _SCHEMA["$defs"], {})


def wrapper_from_dict(d: dict) -> Wrapper:
    """Build a Wrapper from its file dict.  One that nests deeper than
    MAX_NESTING is refused, and one the format check does not certify goes
    to the schema validator, whose first error is the message."""
    depth = _nesting(d)
    if depth > MAX_NESTING:
        raise WrapperFormatError(
            "rules and templates nest %d deep, more than %d" % (depth, MAX_NESTING)
        )
    if not _conforms(d):
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
    return json.dumps(wrapper.to_dict(), indent=2, sort_keys=True) + "\n"


def wrapper_dict(data: bytes):
    """The JSON value of a wrapper file: UTF-8 JSON, else WrapperFormatError."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, too deep
        raise WrapperFormatError("not UTF-8 JSON: %s" % (e,))


def save_wrapper(wrapper: Wrapper, path) -> None:
    """Write the wrapper's file text, which must load back: otherwise
    WrapperFormatError is raised before the file is opened."""
    content = wrapper_json(wrapper).encode("utf-8")
    wrapper_from_dict(wrapper_dict(content))
    with open(path, "wb") as fh:
        fh.write(content)


def load_wrapper(path) -> Wrapper:
    with open(path, "rb") as fh:
        return wrapper_from_dict(wrapper_dict(fh.read()))
