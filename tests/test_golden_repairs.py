"""Recorded repairs: what the engine reports and writes back on every
corpus scenario, under both matching algorithms."""

import hashlib
import json
import random
from pathlib import Path

from wrapmend.corpus import DEFAULT_RATE, SCENARIOS, author_wrapper, generate_page, with_algorithm
from wrapmend.dom import parse_html
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.model import wrapper_json
from wrapmend.mutate import MutationSpec, mutate_tree

GOLDEN_PATH = Path(__file__).with_name("golden_repairs.json")
CLOCK = "2026-01-01T00:00:00+00:00"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_repairs():
    """sha256 of the adaptation reports and of the new wrapper's file text
    (null when nothing changed), per scenario, seed and algorithm.  Seed s
    generates the listing and draws its mutations at the corpus rate."""
    out = {}
    for scenario, operations in SCENARIOS:
        for seed in range(5):
            page = parse_html(generate_page(random.Random(seed)), source_id="original")
            spec = MutationSpec(operations=operations, seed=seed, rate=DEFAULT_RATE)
            mutated, _ = mutate_tree(page, spec)
            for algorithm in ("weighted", "simple"):
                wrapper = with_algorithm(author_wrapper(page), algorithm)
                ctx = ExecutionContext((mutated,), clock=lambda: CLOCK)
                _, reports, new_wrapper = execute_wrapper(wrapper, ctx)
                out["%s/%d/%s" % (scenario, seed, algorithm)] = {
                    "reports": _sha256(
                        json.dumps([r.to_dict() for r in reports], sort_keys=True)
                    ),
                    "wrapper": None if new_wrapper is None else _sha256(wrapper_json(new_wrapper)),
                }
    return out


class TestGoldenRepairs:
    def test_repairs_equal_recorded_digests(self):
        # pins the report triggers, candidates and thresholds, and the
        # template, example and plan that each repair writes back
        assert golden_repairs() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    # regenerate the recorded digests: PYTHONPATH=src python3 tests/test_golden_repairs.py
    GOLDEN_PATH.write_text(json.dumps(golden_repairs(), indent=1, sort_keys=True) + "\n")
