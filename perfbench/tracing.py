"""Spans around the calls into each wrapmend layer, recorded from outside.

The library is not modified: a traced run rebinds the names through which
one layer calls the next (``wrapmend.engine.best_matches``,
``wrapmend.repo.wrapper_from_dict``, ...) to timing wrappers, and the
benchmark's own calls go through a namespace (``Tracer.api``) whose
functions are wrapped the same way.  Spans stay in memory until the run ends.
"""

import importlib
import json
import time
from types import SimpleNamespace

import wrapmend
from wrapmend.dom import subtree_size
from wrapmend.engine import AdaptationFailed
from wrapmend.xpath import PlanExhausted

# span name -> (module whose global is rebound, attribute); the span is
# named after the layer that defines the function, not the caller
CALL_SITES = (
    ("engine.adapt_rule", "wrapmend.engine", "adapt_rule"),
    ("xpath.apply_plan", "wrapmend.engine", "apply_plan"),
    ("xpath.generate_plan", "wrapmend.engine", "generate_plan"),
    ("constraints.validate_results", "wrapmend.engine", "validate_results"),
    ("constraints.validate_results", "wrapmend.xpath", "validate_results"),
    ("matching.best_matches", "wrapmend.engine", "best_matches"),
    ("kernels.score_against_page", "wrapmend.kernels", "score_against_page"),
    ("template.template_match", "wrapmend.engine", "template_match"),
    ("template.generalize", "wrapmend.engine", "generalize"),
    ("template.refine", "wrapmend.engine", "refine"),
    ("model.wrapper_from_dict", "wrapmend.repo", "wrapper_from_dict"),
    ("model.wrapper_json", "wrapmend.repo", "wrapper_json"),
)


def _note_parse(args, kwargs, result, exc):
    return {"nodes": result.node_count} if exc is None else None


def _note_apply_plan(args, kwargs, result, exc):
    if isinstance(exc, PlanExhausted):
        return {"exhausted": 1}
    if exc is None and result[1] != args[0].best_tag:
        return {"fallback": 1}
    return None


def _note_best_matches(args, kwargs, result, exc):
    return {"candidates": len(result)} if exc is None else None


def _note_kernel(args, kwargs, result, exc):
    stored, page = args[0], args[1]
    return {"cells": subtree_size(stored) * page.node_count}


def _note_adapt(args, kwargs, result, exc):
    if isinstance(exc, AdaptationFailed):
        return {"failed": 1}
    if exc is None and any(n.startswith("template matched") for n in result[1].notes):
        return {"rescue": 1}
    return None


def _note_checkout(args, kwargs, result, exc):
    return {"versions": result.version} if exc is None else None


NOTES = {
    "dom.parse_html": _note_parse,
    "xpath.apply_plan": _note_apply_plan,
    "matching.best_matches": _note_best_matches,
    "kernels.score_against_page": _note_kernel,
    "engine.adapt_rule": _note_adapt,
    "repo.checkout": _note_checkout,
}


def _checkout(store, name):
    return store.checkout(name)


def _commit(store, wrapper, summary, timestamp):
    return store.commit(wrapper, summary=summary, timestamp=timestamp)


def plain_api():
    """The calls a workload makes, untraced."""
    return SimpleNamespace(
        parse_html=wrapmend.parse_html,
        execute_wrapper=wrapmend.execute_wrapper,
        ExecutionContext=wrapmend.ExecutionContext,
        checkout=_checkout,
        commit=_commit,
    )


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, page, notes]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.page = None
        self._restore = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, self.page, None]
            open_.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = clock()
                open_.pop()
                if note is not None:
                    span[5] = note(args, kwargs, result, exc)

        return traced

    def install(self):
        for name, module, attr in CALL_SITES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self):
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def api(self):
        plain = plain_api()
        return SimpleNamespace(
            parse_html=self.wrap("dom.parse_html", plain.parse_html),
            execute_wrapper=self.wrap("engine.execute_wrapper", plain.execute_wrapper),
            ExecutionContext=plain.ExecutionContext,
            checkout=self.wrap("repo.checkout", plain.checkout),
            commit=self.wrap("repo.commit", plain.commit),
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, page, notes) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "page": page}
                if notes:
                    rec["notes"] = notes
                fh.write(json.dumps(rec) + "\n")


# the layers' span names, in BENCHMARK.json order
LAYER_SPANS = (
    "dom.parse_html",
    "xpath.apply_plan",
    "constraints.validate_results",
    "matching.best_matches",
    "kernels.score_against_page",
    "engine.execute_wrapper",
    "engine.adapt_rule",
    "template.template_match",
    "template.generalize",
    "template.refine",
    "xpath.generate_plan",
    "model.wrapper_from_dict",
    "model.wrapper_json",
    "repo.checkout",
    "repo.commit",
)


def layer_metrics(spans, pages: int) -> dict:
    """Per-page calls, inclusive ms and self ms for every layer span, plus
    the counters the notes carry.  Self time is a span's duration minus the
    durations of its direct children (spans nest; one thread)."""
    calls = dict.fromkeys(LAYER_SPANS, 0)
    incl = dict.fromkeys(LAYER_SPANS, 0)
    child = [0] * len(spans)
    counts = {}
    for name, start, end, parent, _, notes in spans:
        calls[name] += 1
        incl[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        for k, v in (notes or {}).items():
            key = name + "." + k
            counts[key] = counts.get(key, 0) + v
    selfs = dict.fromkeys(LAYER_SPANS, 0)
    for i, (name, start, end, *_rest) in enumerate(spans):
        selfs[name] += end - start - child[i]

    out = {}
    for name in LAYER_SPANS:
        out[name + ".calls"] = (calls[name] / pages, "1/page")
        out[name + ".ms"] = (incl[name] / 1e6 / pages, "ms/page")
        out[name + ".self_ms"] = (selfs[name] / 1e6 / pages, "ms/page")

    def per_page(key):
        return counts.get(key, 0) / pages

    nodes = counts.get("dom.parse_html.nodes", 0)
    cells = counts.get("kernels.score_against_page.cells", 0)
    adapts = calls["engine.adapt_rule"]
    adapt_failed = counts.get("engine.adapt_rule.failed", 0)
    out["dom.nodes"] = (per_page("dom.parse_html.nodes"), "nodes/page")
    out["dom.us_per_node"] = (incl["dom.parse_html"] / 1e3 / nodes if nodes else 0.0, "us")
    out["xpath.apply_plan.exhausted"] = (per_page("xpath.apply_plan.exhausted"), "1/page")
    out["xpath.fallback_hits"] = (per_page("xpath.apply_plan.fallback"), "1/page")
    out["matching.candidates"] = (per_page("matching.best_matches.candidates"), "1/page")
    out["kernels.cells"] = (cells / pages, "cells/page")
    out["kernels.ns_per_cell"] = (
        incl["kernels.score_against_page"] / cells if cells else 0.0, "ns"
    )
    out["engine.adapt_rule.failed"] = (adapt_failed / pages, "1/page")
    out["engine.template_rescues"] = (per_page("engine.adapt_rule.rescue"), "1/page")
    out["engine.repair_useful_ratio"] = (
        (adapts - adapt_failed) / adapts if adapts else 0.0, "ratio"
    )
    out["repo.versions"] = (
        counts.get("repo.checkout.versions", 0) / calls["repo.checkout"]
        if calls["repo.checkout"] else 0.0,
        "count",
    )
    return out
