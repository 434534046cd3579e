"""The benchmark's tracer (perfbench/tracing.py) times a layer by rebinding
the module global through which the layer above calls it.  A refactor
that renames or bypasses such a call site would leave its span silently
at zero; these tests fail instead.  The benchmark also keeps its own copy
of the page-status rule (perfbench/workloads.py), which must agree with
the library's.  The last test runs the tracer itself over the engine's
real calls, as a traced benchmark pass does."""

import importlib
import importlib.util
import pathlib
import random
from collections import Counter

import wrapmend.engine
import wrapmend.xpath
from wrapmend.corpus import SCENARIOS, author_wrapper, generate_page
from wrapmend.dom import parse_html
from wrapmend.engine import ExecutionContext, adapt_rule, execute_wrapper, page_status
from wrapmend.mutate import MutationSpec, mutate_tree

from test_engine import WRAPPED_HTML, build_wrapper

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_sites():
    return perfbench_module("tracing").CALL_SITES


def test_every_call_site_exists():
    sites = call_sites()
    assert sites
    for span, module, attr in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_accept_path_calls_through_the_traced_names(monkeypatch):
    html = generate_page(random.Random(5))
    n = html.count('class="record"')
    page = parse_html(html)
    answered = []  # (tag used, plan's best tag) per apply_plan call
    validated = []
    apply_plan = wrapmend.engine.apply_plan
    validate_results = wrapmend.xpath.validate_results

    def counting_apply_plan(plan, *args, **kwargs):
        result = apply_plan(plan, *args, **kwargs)
        answered.append((result[1], plan.best_tag))
        return result

    def counting_validate_results(*args, **kwargs):
        validated.append(1)
        return validate_results(*args, **kwargs)

    monkeypatch.setattr(wrapmend.engine, "apply_plan", counting_apply_plan)
    monkeypatch.setattr(wrapmend.xpath, "validate_results", counting_validate_results)
    _, reports, _ = execute_wrapper(author_wrapper(page), ExecutionContext(pages=(page,)))
    assert reports == []
    # the record rule once, then its name and price rules once per record
    assert len(answered) == 1 + 2 * n
    assert all(used == best for used, best in answered)
    assert len(validated) == 1 + 2 * n


def test_adapt_note_reads_the_report_of_a_repair():
    note = perfbench_module("tracing")._note_adapt
    page = parse_html(WRAPPED_HTML)
    for with_template, want in ((True, {"rescue": 1}), (False, None)):
        record = build_wrapper(with_template=with_template).find_rule("record")
        result = adapt_rule(record, page)
        assert (result[0] is record) == with_template
        assert note((record, page), {}, result, None) == want


def test_benchmark_status_rule_is_the_library_rule():
    overall_status = perfbench_module("workloads").overall_status
    seen = set()
    for seed in range(3):
        page = parse_html(generate_page(random.Random(seed)))
        wrapper = author_wrapper(page)
        for _, operations in SCENARIOS:
            spec = MutationSpec(operations=operations, seed=seed, rate=0.3)
            results, _, new_wrapper = execute_wrapper(
                wrapper, ExecutionContext(pages=(mutate_tree(page, spec)[0],))
            )
            status = page_status(results, new_wrapper)
            assert overall_status(results, new_wrapper) == status
            seen.add(status)
    assert seen == {"ok", "adapted", "failed"}


def test_the_benchmark_tracer_runs_over_the_corpus_scenarios():
    tracing = perfbench_module("tracing")
    page = parse_html(generate_page(random.Random(1)))
    wrapper = author_wrapper(page)
    bundles = [
        ExecutionContext(
            pages=(mutate_tree(page, MutationSpec(operations=ops, seed=1, rate=0.3))[0],)
        )
        for _, ops in SCENARIOS
    ]

    def run_all():
        return [[r.to_dict() for r in execute_wrapper(wrapper, b)[0]] for b in bundles]

    untraced = run_all()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, attr in tracing.CALL_SITES
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # notes run in each traced call's `finally`: one that raised would
        # replace the call's outcome and end the run here
        traced = run_all()
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, (module, attr)
    assert traced == untraced
    calls = Counter(name for name, *_ in tracer.spans)
    notes = Counter((name, key) for name, *_, note in tracer.spans for key in (note or {}))
    assert notes["xpath.apply_plan", "exhausted"] > 0
    assert calls["engine.adapt_rule"] > 0
