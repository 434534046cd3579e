"""Corpus generation, ground truth, and the scoring harness."""

import json
import random

import pytest

from wrapmend.cli import main as cli_main
from wrapmend.corpus import (
    SCENARIOS,
    author_wrapper,
    build_case,
    build_corpus,
    evaluate_case,
    evaluate_corpus,
    expected_extraction,
    flatten_results,
    generate_page,
    main,
    with_algorithm,
)
from wrapmend.dom import parse_html, resolve
from wrapmend.engine import ExecutionContext, execute_wrapper
from wrapmend.metrics import EvalOutcome
from wrapmend.model import load_wrapper


def page_for(seed=7):
    return parse_html(generate_page(random.Random(seed)), source_id="gen")


class TestGenerator:
    def test_deterministic(self):
        a = generate_page(random.Random(3))
        b = generate_page(random.Random(3))
        assert a == b
        assert a != generate_page(random.Random(4))

    def test_page_structure(self):
        page = page_for()
        main_divs = []
        stack = [((), page.root)]
        records = []
        while stack:
            path, node = stack.pop()
            if node.attributes.get("id") == "main":
                main_divs.append(path)
            if node.attributes.get("class") == "record":
                records.append((path, node))
            stack.extend(
                (path + (i,), c) for i, c in enumerate(node.children)
            )
        assert len(main_divs) == 1
        assert 5 <= len(records) <= 9
        for _, rec in records:
            labels = [c.label for c in rec.children]
            assert labels == ["span", "span", "ul"]
            assert rec.children[0].attributes["class"] == "name"
            assert rec.children[1].attributes["class"] == "price"

    def test_records_share_shape_within_a_page(self):
        page = page_for(11)
        sizes = set()
        stack = [page.root]
        while stack:
            node = stack.pop()
            if node.attributes.get("class") == "record":
                sizes.add(len(node.children[2].children))
            stack.extend(node.children)
        assert len(sizes) == 1


class TestAuthoredWrapper:
    def test_runs_clean_on_its_own_page(self):
        page = page_for()
        w = author_wrapper(page)
        expected = expected_extraction(w, page)
        assert set(expected) == {"record", "record/name", "record/price"}
        n = len(expected["record"])
        assert n >= 5
        assert len(expected["record/name"]) == n
        assert len(expected["record/price"]) == n

    def test_extracted_texts_look_right(self):
        page = page_for(5)
        w = author_wrapper(page)
        results, reports, _ = execute_wrapper(
            w, ExecutionContext(pages=(page,))
        )
        assert reports == []
        for path in expected_extraction(w, page)["record/price"]:
            text = resolve(page, path).text
            assert "." in text and text.replace(".", "").isdigit()

    def test_plans_are_class_anchored(self):
        w = author_wrapper(page_for())
        assert "record" in w.find_rule("record").plan.best.to_string()
        assert w.find_rule("record/name").plan.best.to_string().startswith(".//")

    def test_with_algorithm_swaps_every_rule(self):
        w = author_wrapper(page_for())
        s = with_algorithm(w, "simple")
        for path, rule in s.iter_rules():
            assert rule.adaptation.algorithm == "simple"
        # the input wrapper is left alone
        for path, rule in w.iter_rules():
            assert rule.adaptation.algorithm == "weighted"


class TestFlatten:
    def test_pools_paths_per_rule_path(self):
        page = page_for()
        w = author_wrapper(page)
        results, _, _ = execute_wrapper(w, ExecutionContext(pages=(page,)))
        # every match carries one tuple of child results, at every level
        stack = list(results)
        while stack:
            r = stack.pop()
            assert len(r.children) == len(r.matches)
            stack.extend(kid for kids in r.children for kid in kids)
        flat = flatten_results(results)
        assert all(isinstance(p, tuple) for p in flat["record"])
        # child paths extend some record path
        recs = set(flat["record"])
        for p in flat["record/name"]:
            assert p[:-1] in recs


class TestCaseBuilding:
    def test_files_and_truth_shape(self, tmp_path):
        case = tmp_path / "c0"
        build_case(case, ("change_class_value",), page_seed=1, mutation_seed=2, rate=0.15)
        for name in ("original.html", "mutated.html", "wrapper.json", "truth.json"):
            assert (case / name).exists()
        truth = json.loads((case / "truth.json").read_text())
        assert set(truth) == {"mapping", "expected"}
        assert set(truth["expected"]) == {"record", "record/name", "record/price"}
        original = parse_html((case / "original.html").read_text())
        # every expected path resolves on the original page
        for paths in truth["expected"].values():
            for p in paths:
                resolve(original, tuple(p))

    def test_zero_rate_case_scores_perfectly(self, tmp_path):
        case = tmp_path / "clean"
        build_case(case, ("change_class_value",), page_seed=3, mutation_seed=4, rate=0.0)
        tp, fp, fn = evaluate_case(case, "weighted")
        truth = json.loads((case / "truth.json").read_text())
        assert fp == 0 and fn == 0
        assert tp == sum(len(v) for v in truth["expected"].values())

    def test_mutated_case_still_extracts_most(self, tmp_path):
        case = tmp_path / "dirty"
        build_case(case, ("change_class_value",), page_seed=5, mutation_seed=6, rate=0.15)
        tp, fp, fn = evaluate_case(case, "weighted")
        assert tp > 0
        assert tp >= fn  # repairs recover more than they lose

    def test_wrapper_round_trips_from_disk(self, tmp_path):
        case = tmp_path / "c1"
        build_case(case, ("reorder_siblings",), page_seed=8, mutation_seed=9, rate=0.15)
        w = load_wrapper(case / "wrapper.json")
        assert [p for p, _ in w.iter_rules()] == ["record", "record/name", "record/price"]
        assert w.find_rule("record").adaptation.triggers == frozenset(
            {"top_down", "bottom_up", "process_flow"}
        )


class TestCorpusEvaluation:
    def test_layout_and_outcomes(self, tmp_path):
        root = tmp_path / "corpus"
        written = build_corpus(root, cases=1, seed=0)
        assert len(written) == len(SCENARIOS)
        for scenario, _ in SCENARIOS:
            assert (root / scenario / "case00" / "truth.json").exists()
        outcomes = evaluate_corpus(root, "weighted")
        assert set(outcomes) == {s for s, _ in SCENARIOS} | {"overall"}
        assert all(isinstance(o, EvalOutcome) for o in outcomes.values())
        total = outcomes["overall"]
        assert total.tp == sum(
            outcomes[s].tp for s, _ in SCENARIOS
        )

    def test_builds_are_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        build_corpus(a, cases=1, seed=42)
        build_corpus(b, cases=1, seed=42)
        fa = (a / "mixed" / "case00" / "mutated.html").read_text()
        fb = (b / "mixed" / "case00" / "mutated.html").read_text()
        assert fa == fb

    def test_cli_builds(self, tmp_path, capsys):
        root = tmp_path / "out"
        rc = main(["--out", str(root), "--cases", "1"])
        assert rc == 0
        assert "wrote 7 cases" in capsys.readouterr().out
        assert (root / "shuffled" / "case00" / "wrapper.json").exists()

    @pytest.mark.parametrize("rate", ["3", "-0.5", "nan"])
    def test_rate_outside_the_unit_interval_is_usage_error(self, tmp_path, capsys, rate):
        root = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(root), "--rate", rate])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("argument --rate: %r is not a rate in [0, 1]" % rate)
        assert not root.exists()

    def test_out_through_a_regular_file_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        for out in (blocker, blocker / "corpus"):
            assert main(["--out", str(out), "--cases", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("wrapmend.corpus: cannot write corpus: ")
            assert str(blocker) in err
        assert blocker.read_text() == "not a directory"

    def test_evaluate_prints_what_eval_prints(self, tmp_path, capsys):
        root = tmp_path / "out"
        assert main(["--out", str(root), "--cases", "1", "--evaluate"]) == 0
        built = capsys.readouterr().out.splitlines()
        tables = []
        for algorithm in ("weighted", "simple"):
            assert cli_main(["--algorithm", algorithm, "eval", str(root)]) == 0
            tables += capsys.readouterr().out.splitlines()
        assert built[0] == "wrote 7 cases under %s" % root
        assert built[1:] == tables
