"""Seeded inputs and the per-page operation of each workload.

Every workload is a fixed page list played in whole passes by one
closed-loop client.  Inputs are made from the seed before timing starts;
the system under test only ever sees generated HTML and wrapper JSON.
Page sizes and the scenario mix are fixed by design and only content and
damage come from the seed, so two seeds exercise the same amount of work.
"""

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from wrapmend import corpus
from wrapmend.dom import parse_html, serialize
from wrapmend.model import wrapper_from_dict, wrapper_json
from wrapmend.mutate import MutationSpec, mutate_tree
from wrapmend.repo import WrapperStore

FIXED_TIME = "2026-01-01T00:00:00+00:00"


def fixed_clock() -> str:
    return FIXED_TIME


# Each workload plays 120 or more distinct pages per pass, enough that its
# latency tail (p90) has ten pages beyond it.  Sizes step in small
# increments so that no percentile sits in a gap between size classes.
# steady spreads page size 25x; drift damages listings of 12 to 72
# records with every corpus scenario; versioned keeps small pages so that
# the store's cost shows, and many sites so that one redesign moves the
# shares little.
SCALES = {
    "full": {
        "steady": dict(sites=8, sizes=tuple(range(8, 201, 13))),
        "drift": dict(sites=4, sizes=tuple(range(10, 51, 2)), reps=3),
        "versioned": dict(sites=21, records=20, redesigns=2, snapshots=2),
    },
    # the fewest small pages that still give a tail (p75 of 40)
    "tiny": {
        "steady": dict(sites=2, sizes=tuple(range(3, 23))),
        "drift": dict(sites=1, sizes=(4, 6), reps=3),
        "versioned": dict(sites=2, records=4, redesigns=1, snapshots=10),
    },
}


class _SizedRandom(random.Random):
    """corpus.generate_page draws the record count with its first randint;
    this answers that draw with a chosen count and leaves the rest seeded."""

    def __init__(self, seed, n_records):
        super().__init__(seed)
        self._n_records = n_records

    def randint(self, a, b):
        if self._n_records is not None:
            n, self._n_records = self._n_records, None
            return n
        return super().randint(a, b)


def listing(seed: int, n_records: int) -> str:
    html = corpus.generate_page(_SizedRandom(seed, n_records))
    if html.count('class="record"') != n_records:
        raise RuntimeError("generate_page no longer draws the record count first")
    return html


@dataclass
class Page:
    key: str
    site: str
    html: str
    expected: dict  # rule path -> node paths extracted on the intact page
    mapping: dict = None  # intact path -> damaged path (None: deleted); None if intact


@dataclass
class Site:
    name: str
    wrapper_text: str  # the authored wrapper as its JSON file text
    wrapper: object = None  # loaded from wrapper_text during set-up


def _author(name: str, seed: int, n_records: int):
    intact = parse_html(listing(seed, n_records), source_id=name + "-authoring")
    wrapper = corpus.author_wrapper(intact, name=name)
    return Site(name=name, wrapper_text=wrapper_json(wrapper)), wrapper


def _intact_page(site, wrapper, key, seed, n_records):
    html = listing(seed, n_records)
    tree = parse_html(html, source_id=key)
    return tree, Page(key, site.name, html, corpus.expected_extraction(wrapper, tree))


def _damaged_page(site, wrapper, key, seed, n_records, operations, mutation_seed):
    tree, page = _intact_page(site, wrapper, key, seed, n_records)
    spec = MutationSpec(operations=operations, seed=mutation_seed, rate=corpus.DEFAULT_RATE)
    mutated, mapping = mutate_tree(tree, spec)
    page.html = serialize(mutated)
    page.mapping = mapping
    return page


def load_site_wrappers(sites):
    for site in sites:
        site.wrapper = wrapper_from_dict(json.loads(site.wrapper_text))


# -- outcomes


def overall_status(results, new_wrapper) -> str:
    """The CLI's rule: "failed" (exit 20) when any result failed."""
    seen = set()

    def walk(rs):
        for r in rs:
            seen.add(r.status)
            for kids in r.children:
                walk(kids)

    walk(results)
    if "failed" in seen:
        return "failed"
    if new_wrapper is not None or "adapted" in seen:
        return "adapted"
    return "ok"


def outcome_of(results, new_wrapper, committed=None):
    """What a page produced, in a form two runs can compare exactly."""
    extracted = {
        rule: sorted(paths) for rule, paths in corpus.flatten_results(results).items()
    }
    digest = None
    if new_wrapper is not None:
        digest = wrapper_json(new_wrapper)
    return (overall_status(results, new_wrapper), extracted, digest, committed)


def score(page: Page, extracted: dict):
    """(tp, fp, fn) with corpus.evaluate_case's accounting."""
    tp = fp = fn = 0
    for rule, exp_paths in page.expected.items():
        if page.mapping is None:
            mapped = {tuple(p) for p in exp_paths}
        else:
            mapped = {
                tuple(page.mapping[tuple(p)])
                for p in exp_paths
                if page.mapping.get(tuple(p)) is not None
            }
        got = {tuple(p) for p in extracted.get(rule, ())}
        tp += len(got & mapped)
        fp += len(got - mapped)
        fn += len(mapped - got)
    return tp, fp, fn


# -- workloads


@dataclass
class Workload:
    name: str
    sites: list
    pages: list  # one pass, in play order
    exact: bool  # extraction must equal `expected` on every page
    store_root: Path = None
    _pass_store: object = field(default=None, repr=False)

    def begin_pass(self, label: str):
        """Untimed: a versioned pass starts from a fresh store holding v1."""
        if self.store_root is None:
            return
        root = self.store_root / label
        shutil.rmtree(root, ignore_errors=True)
        self._pass_store = WrapperStore(root)
        for site in self.sites:
            self._pass_store.commit(
                site.wrapper, summary=(("*", "import", "seeded"),), timestamp=FIXED_TIME
            )

    def end_pass(self):
        if self._pass_store is not None:
            shutil.rmtree(self._pass_store.root, ignore_errors=True)
            self._pass_store = None

    def serve(self, page: Page, api):
        """One page snapshot through the library path.  Returns (results,
        new wrapper or None, committed version or None)."""
        store = self._pass_store
        if store is None:
            wrapper = next(s.wrapper for s in self.sites if s.name == page.site)
        else:
            wrapper = api.checkout(store, page.site)
        tree = api.parse_html(page.html, source_id=page.key)
        results, reports, new_wrapper = api.execute_wrapper(
            wrapper, api.ExecutionContext(pages=(tree,), clock=fixed_clock)
        )
        committed = None
        if store is not None and new_wrapper is not None:
            summary = tuple(
                (r.rule_name, r.trigger, "threshold %s" % (r.chosen_threshold,))
                for r in reports
                if r.succeeded
            )
            committed = api.commit(store, new_wrapper, summary, FIXED_TIME).version
        return results, new_wrapper, committed


def _rng_seeds(seed: int, salt: str):
    rng = random.Random("%d/%s" % (seed, salt))
    while True:
        yield rng.randrange(1 << 30)


def build(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    cfg = SCALES[scale][name]
    seeds = _rng_seeds(seed, name)
    authored = [_author("site%d" % s, next(seeds), 30) for s in range(cfg["sites"])]
    sites = [site for site, _ in authored]
    pages = []
    if name == "steady":
        for site, wrapper in authored:
            for n in cfg["sizes"]:
                key = "%s-n%d" % (site.name, n)
                pages.append(_intact_page(site, wrapper, key, next(seeds), n)[1])
    elif name == "drift":
        i = 0
        for _ in range(cfg["reps"]):
            for n in cfg["sizes"]:
                for scenario, operations in corpus.SCENARIOS:
                    site, wrapper = authored[i % len(authored)]
                    key = "%s-%s-n%d-%d" % (site.name, scenario, n, i)
                    pages.append(
                        _damaged_page(
                            site, wrapper, key, next(seeds), n, operations, next(seeds)
                        )
                    )
                    i += 1
    elif name == "versioned":
        designs = {}
        for s, (site, wrapper) in enumerate(authored):
            page_seed = next(seeds)
            first = _intact_page(site, wrapper, site.name + "-d0", page_seed, cfg["records"])[1]
            designs[site.name] = [first]
            for d in range(1, cfg["redesigns"] + 1):
                rotation = (s * cfg["redesigns"] + d - 1) % len(corpus.SCENARIOS)
                scenario, operations = corpus.SCENARIOS[rotation]
                key = "%s-d%d-%s" % (site.name, d, scenario)
                designs[site.name].append(
                    _damaged_page(
                        site, wrapper, key, page_seed, cfg["records"], operations, next(seeds)
                    )
                )
        for d in range(cfg["redesigns"] + 1):
            for _ in range(cfg["snapshots"]):
                for site in sites:
                    pages.append(designs[site.name][d])
    else:
        raise ValueError("unknown workload %r" % (name,))
    if name != "versioned":
        random.Random("%d/order" % seed).shuffle(pages)
    return Workload(
        name=name,
        sites=sites,
        pages=pages,
        exact=name == "steady",
        store_root=workdir / "store" if name == "versioned" else None,
    )


def warmup(name: str, seed: int, workdir: Path) -> Workload:
    """One small page outside the timed set; on drift and versioned it is
    damaged so that the repair path (and any kernel compilation) runs."""
    rng = random.Random("%d/warmup" % seed)
    site, wrapper = _author("warmup", rng.randrange(1 << 30), 12)
    if name == "steady":
        page = _intact_page(site, wrapper, "warmup", rng.randrange(1 << 30), 12)[1]
    else:
        page = _damaged_page(
            site, wrapper, "warmup", rng.randrange(1 << 30), 12,
            dict(corpus.SCENARIOS)["relabel"], rng.randrange(1 << 30),
        )
    return Workload(
        name=name,
        sites=[site],
        pages=[page],
        exact=False,
        store_root=workdir / "warmup-store" if name == "versioned" else None,
    )
