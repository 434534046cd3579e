"""Integrity constraints over extraction results.

Violations are data, not exceptions: the engine inspects them to decide
whether a rule needs repair, and reports carry them verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

_INTEGER_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")

DATATYPES = ("integer", "decimal", "pattern")


@dataclass(frozen=True)
class CardinalityConstraint:
    """Bounds on how many nodes a rule may yield per evaluation context.
    max_count None means unbounded."""

    min_count: int = 1
    max_count: Optional[int] = 1

    kind = "cardinality"  # a class attribute, not a field

    def __post_init__(self):
        if self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if self.max_count is not None and self.max_count < self.min_count:
            raise ValueError("max_count must be >= min_count")

    def admits(self, count: int) -> bool:
        if count < self.min_count:
            return False
        return self.max_count is None or count <= self.max_count

    def to_dict(self) -> dict:
        return {"kind": "cardinality", "min": self.min_count, "max": self.max_count}


@dataclass(frozen=True)
class DatatypeConstraint:
    """The owned text of every matched node must parse as the datatype.
    `pattern` holds the regex for datatype="pattern" and is unused otherwise."""

    datatype: str = "pattern"
    pattern: Optional[str] = None

    kind = "datatype"

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise ValueError("unknown datatype %r" % (self.datatype,))
        if self.datatype == "integer":
            regex = _INTEGER_RE
        elif self.datatype == "decimal":
            regex = _DECIMAL_RE
        else:
            if not self.pattern:
                raise ValueError("pattern datatype requires a pattern")
            try:
                regex = re.compile(self.pattern)
            except re.error as exc:
                raise ValueError("bad pattern %r: %s" % (self.pattern, exc))
        # compiled once; not a field, so equality, hashing and to_dict ignore it
        object.__setattr__(self, "_regex", regex)

    def admits(self, text: str) -> bool:
        return self._regex.fullmatch(text) is not None

    def to_dict(self) -> dict:
        return {"kind": "datatype", "datatype": self.datatype, "pattern": self.pattern}


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class CardinalityViolation(Violation):
    count: int = 0
    min_count: int = 0
    max_count: Optional[int] = None


@dataclass(frozen=True)
class DatatypeViolation(Violation):
    path: tuple = ()
    value: str = ""


def constraint_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "cardinality":
        return CardinalityConstraint(min_count=d["min"], max_count=d.get("max"))
    if kind == "datatype":
        return DatatypeConstraint(datatype=d["datatype"], pattern=d.get("pattern"))
    raise ValueError("unknown constraint kind %r" % (kind,))


def validate_results(results, constraints) -> list:
    """Check (path, text) result pairs against every constraint.

    Returns all violations found; an empty list means the results satisfy
    the constraints.  Cardinality is checked against the number of results,
    datatypes against each result's text.
    """
    violations = []
    count = len(results)
    for c in constraints:
        if c.kind == "cardinality":
            if not c.admits(count):
                bound = "unbounded" if c.max_count is None else str(c.max_count)
                violations.append(
                    CardinalityViolation(
                        kind="cardinality",
                        message="got %d results, expected %d..%s" % (count, c.min_count, bound),
                        count=count,
                        min_count=c.min_count,
                        max_count=c.max_count,
                    )
                )
        elif c.kind == "datatype":
            for path, text in results:
                if not c.admits(text):
                    violations.append(
                        DatatypeViolation(
                            kind="datatype",
                            message="value %r at %s is not a valid %s"
                            % (text, "/".join(map(str, path)) or ".", c.datatype),
                            path=tuple(path),
                            value=text,
                        )
                    )
    return violations
