"""Command line surface: exit codes, documents, store wiring."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import deep_page
from test_model import PAGE, sample_wrapper, unloadable_plan
from wrapmend import engine
from wrapmend.cli import main
from wrapmend.corpus import author_wrapper, build_corpus
from wrapmend.dom import parse_html, serialize
from wrapmend.model import load_wrapper, save_wrapper
from wrapmend.repo import WrapperStore

ORIGINAL_HTML = (
    '<html><body><div id="main">'
    '<div class="record"><span class="name">Alpha</span><span class="price">10.00</span></div>'
    '<div class="record"><span class="name">Beta</span><span class="price">20.00</span></div>'
    "</div></body></html>"
)

# records demoted a level, tag class renamed: every locator heuristic
# either misses or lands on the wrapper div, so repair has to kick in
WRAPPED_HTML = (
    '<html><body><div id="main"><div class="wrap">'
    '<div class="item"><span class="name">Alpha</span><span class="price">10.00</span></div>'
    '<div class="item"><span class="name">Beta</span><span class="price">20.00</span></div>'
    "</div></div></body></html>"
)

EMPTY_HTML = "<html><body><p>scheduled maintenance</p></body></html>"

# the original page with an e-acute in a name, in Latin-1 rather than UTF-8
LATIN1_HTML = ORIGINAL_HTML.replace("Alpha", "Alph\xe9").encode("latin-1")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "original.html").write_text(ORIGINAL_HTML)
    (tmp_path / "mutated.html").write_text(WRAPPED_HTML)
    (tmp_path / "empty.html").write_text(EMPTY_HTML)
    page = parse_html(ORIGINAL_HTML, source_id="original")
    save_wrapper(author_wrapper(page), tmp_path / "wrapper.json")
    return tmp_path


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out else None


class TestRun:
    def test_clean_run(self, workdir, capsys):
        rc, doc = run_json(
            capsys, ["run", str(workdir / "wrapper.json"), str(workdir / "original.html")]
        )
        assert rc == 0
        assert doc["status"] == "ok"
        assert doc["reports"] == []
        assert doc["new_version"] is None
        texts = [
            c["matches"][0]["text"]
            for r in doc["results"]
            for m in r["matches"]
            for c in m["children"]
        ]
        assert texts == ["Alpha", "10.00", "Beta", "20.00"]
        locators = [r["locator"] for r in doc["results"]] + [
            c["locator"] for r in doc["results"] for m in r["matches"] for c in m["children"]
        ]
        assert set(locators) == {"attribute"}

    def test_adapted_run_with_commit(self, workdir, capsys):
        store = workdir / "store"
        rc, doc = run_json(
            capsys,
            [
                "--store",
                str(store),
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
                "--commit",
            ],
        )
        assert rc == 0
        assert doc["status"] == "adapted"
        assert doc["new_version"] == 2
        assert doc["committed"] == 2
        assert doc["reports"]
        texts = [
            c["matches"][0]["text"]
            for r in doc["results"]
            for m in r["matches"]
            for c in m["children"]
        ]
        assert texts == ["Alpha", "10.00", "Beta", "20.00"]

        records = WrapperStore(store).history("listing")
        assert [r.version for r in records] == [1, 2]
        assert records[0].parent_version is None
        assert records[1].parent_version == 1
        assert records[1].change_summary  # the repaired rules, one line each
        assert WrapperStore(store).checkout("listing", 2).version == 2

    def test_failed_run(self, workdir, capsys):
        rc, doc = run_json(
            capsys, ["run", str(workdir / "wrapper.json"), str(workdir / "empty.html")]
        )
        assert rc == 20
        assert doc["status"] == "failed"

    def test_no_adapt_is_baseline(self, workdir, capsys):
        rc, doc = run_json(
            capsys,
            [
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
                "--no-adapt",
            ],
        )
        assert rc == 20
        assert doc["status"] == "failed"
        assert doc["reports"] == []

    def test_out_file_quiets_stdout(self, workdir, capsys):
        out = workdir / "run.json"
        rc = main(
            [
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "original.html"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["status"] == "ok"

    def test_table_format(self, workdir, capsys):
        rc = main(
            [
                "--format",
                "table",
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "original.html"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "listing v1: ok" in out
        assert "matches: 6" in out

    def test_algorithm_pins_reports(self, workdir, capsys):
        rc, doc = run_json(
            capsys,
            [
                "--algorithm",
                "simple",
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
            ],
        )
        assert rc == 0
        algs = {r["algorithm"] for r in doc["reports"] if r["algorithm"]}
        assert algs == {"simple"}

    def test_missing_wrapper_is_usage_error(self, workdir, capsys):
        rc = main(["run", str(workdir / "nope.json"), str(workdir / "original.html")])
        assert rc == 2
        assert "wrapmend:" in capsys.readouterr().err

    def test_missing_page_is_usage_error(self, workdir, capsys):
        rc = main(["run", str(workdir / "wrapper.json"), str(workdir / "nope.html")])
        assert rc == 2

    def test_commit_that_would_not_load_back_fails(self, workdir, capsys, monkeypatch):
        # every repaired plan names an element the grammar cannot spell
        monkeypatch.setattr(engine, "generate_plan", lambda *a, **kw: unloadable_plan())
        store = workdir / "store"
        rc = main(
            [
                "--store",
                str(store),
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
                "--commit",
            ]
        )
        assert rc == 2
        assert "commit failed" in capsys.readouterr().err
        # the seeded version stays the last good one
        assert [r.version for r in WrapperStore(store).history("listing")] == [1]
        assert WrapperStore(store).checkout("listing") == load_wrapper(
            workdir / "wrapper.json"
        )

    def test_store_that_cannot_be_a_directory_fails_the_commit(self, workdir, capsys):
        (workdir / "afile").write_text("")
        store = workdir / "afile" / "store"
        for page in ("original.html", "mutated.html"):
            argv = ["--store", str(store), "run", str(workdir / "wrapper.json")]
            rc = main(argv + [str(workdir / page), "--commit"])
            assert rc == 2
            assert "commit failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change", ["nest_200_deep", "bad_pattern", "latin1", "brackets_100000_deep"]
    )
    def test_unloadable_wrapper_is_usage_error(self, workdir, capsys, change):
        d = json.loads((workdir / "wrapper.json").read_text())
        record = d["rules"][0]
        if change == "bad_pattern":
            record["children"][0]["constraints"][1]["pattern"] = "["
        elif change == "nest_200_deep":
            rule = record["children"][0]
            for _ in range(198):  # under record and its child: 200 deep
                rule["children"] = [dict(rule, children=[])]
                rule = rule["children"][0]
        content = json.dumps(d).encode("utf-8")
        if change == "latin1":
            content = content.replace(b'"listing"', b'"list\xefng"')
        elif change == "brackets_100000_deep":
            content = b"[" * 100000
        (workdir / "wrapper.json").write_bytes(content)
        rc = main(["run", str(workdir / "wrapper.json"), str(workdir / "original.html")])
        assert rc == 2
        assert "cannot load wrapper" in capsys.readouterr().err

    def test_float_residual_path_is_usage_error(self, tmp_path, capsys):
        d = sample_wrapper().to_dict()
        d["rules"][0]["stored_example"]["residual_path"] = [0.0]
        (tmp_path / "w.json").write_text(json.dumps(d), encoding="utf-8")
        (tmp_path / "p.html").write_text(serialize(PAGE), encoding="utf-8")
        rc = main(["run", str(tmp_path / "w.json"), str(tmp_path / "p.html")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot load wrapper" in err
        assert "schema violation at $.rules[0].stored_example.residual_path[0]" in err

    def test_commit_without_store_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
                "--commit",
            ]
        )
        assert rc == 2

    def test_commit_without_store_refused_before_running(self, workdir, capsys):
        # a clean run would repair nothing, so nothing would be committed
        page = str(workdir / "original.html")
        rc = main(["run", str(workdir / "wrapper.json"), page, "--commit"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "--commit needs --store" in err

    def test_latin1_page_runs(self, workdir, capsys):
        page = workdir / "latin1.html"
        page.write_bytes(LATIN1_HTML)
        rc, doc = run_json(capsys, ["run", str(workdir / "wrapper.json"), str(page)])
        # the name pattern refuses U+FFFD, and the repair finds no other name
        assert (rc, doc["status"]) == (20, "failed")
        texts = [
            cm["text"]
            for r in doc["results"]
            for m in r["matches"]
            for c in m["children"]
            for cm in c["matches"]
        ]
        assert texts == ["10.00", "Beta", "20.00"]

    def test_unwritable_out_is_usage_error(self, workdir, capsys):
        out = workdir / "no-such-dir" / "run.json"
        rc = main(
            ["run", str(workdir / "wrapper.json"), str(workdir / "original.html"),
             "--out", str(out)]
        )
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err


class TestMutate:
    def test_writes_page_and_truth(self, workdir, capsys):
        page = workdir / "original.html"
        rc = main(["--seed", "3", "mutate", str(page), "--rate", "0.4"])
        assert rc == 0
        mutated = workdir / "original.mutated.html"
        truth_path = workdir / "original.truth.json"
        assert mutated.exists() and truth_path.exists()
        truth = json.loads(truth_path.read_text())
        assert truth["spec"]["seed"] == 3
        assert truth["spec"]["rate"] == 0.4
        # one mapping entry per element of the original
        assert len(truth["mapping"]) == 9
        parse_html(mutated.read_text())  # damaged but well formed

    def test_deterministic_per_seed(self, workdir, capsys):
        page = workdir / "original.html"
        outs = []
        for name in ("a.html", "b.html"):
            rc = main(
                [
                    "--seed",
                    "11",
                    "mutate",
                    str(page),
                    "--out",
                    str(workdir / name),
                    "--truth",
                    str(workdir / (name + ".json")),
                ]
            )
            assert rc == 0
            outs.append((workdir / name).read_text())
        assert outs[0] == outs[1]

    def test_rate_zero_is_identity(self, workdir, capsys):
        page = workdir / "original.html"
        rc, doc = run_json(
            capsys, ["--format", "json", "mutate", str(page), "--rate", "0"]
        )
        assert rc == 0
        assert doc["moved_or_deleted"] == 0
        canonical = serialize(parse_html(ORIGINAL_HTML))
        assert (workdir / "original.mutated.html").read_text() == canonical
        truth = json.loads((workdir / "original.truth.json").read_text())
        for key, value in truth["mapping"].items():
            assert value == [int(x) for x in key.split("/") if x != ""]

    def test_op_subset_respected(self, workdir, capsys):
        page = workdir / "original.html"
        rc, doc = run_json(
            capsys,
            [
                "--format",
                "json",
                "--seed",
                "5",
                "mutate",
                str(page),
                "--op",
                "change_class_value",
                "--rate",
                "0.9",
            ],
        )
        assert rc == 0
        # attribute damage never moves nodes
        assert doc["moved_or_deleted"] == 0
        truth = json.loads((workdir / "original.truth.json").read_text())
        assert truth["spec"]["operations"] == ["change_class_value"]

    def test_missing_page_is_usage_error(self, workdir, capsys):
        assert main(["mutate", str(workdir / "nope.html")]) == 2

    @pytest.mark.parametrize("rate", ["2", "-1", "nan", "half"])
    def test_rate_outside_the_unit_interval_is_usage_error(self, workdir, capsys, rate):
        before = sorted(workdir.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(workdir / "original.html"), "--rate", rate])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("argument --rate: %r is not a rate in [0, 1]" % rate)
        assert "Traceback" not in err
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--out", "--truth"])
    def test_unwritable_output_is_usage_error(self, workdir, capsys, flag):
        target = workdir / "no-such-dir" / "file"
        rc = main(["mutate", str(workdir / "original.html"), flag, str(target)])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_latin1_page(self, workdir, capsys):
        page = workdir / "latin1.html"
        page.write_bytes(LATIN1_HTML)
        rc = main(["mutate", str(page), "--rate", "0"])
        assert rc == 0
        mutated = (workdir / "latin1.mutated.html").read_bytes()
        assert "Alph\ufffd".encode("utf-8") in mutated

    def test_page_nested_1200_deep(self, workdir, capsys):
        page = workdir / "deep.html"
        page.write_text(deep_page(1200))
        rc, doc = run_json(
            capsys, ["--format", "json", "mutate", str(page), "--rate", "0.2"]
        )
        assert rc == 0
        assert doc["nodes"] == 1202 and doc["moved_or_deleted"] > 0
        truth = json.loads((workdir / "deep.truth.json").read_text())
        assert len(truth["mapping"]) == 1202
        parse_html((workdir / "deep.mutated.html").read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    build_corpus(root, cases=1, rate=0.0, seed=0)
    return root


class TestEval:
    def test_identity_corpus_is_perfect(self, corpus, capsys):
        rc, doc = run_json(capsys, ["--format", "json", "eval", str(corpus)])
        assert rc == 0
        assert set(doc) == {
            "relabel",
            "attribute_loss",
            "wrapped",
            "flattened",
            "shuffled",
            "duplicated",
            "mixed",
            "overall",
        }
        overall = doc["overall"]
        assert overall["fp"] == 0 and overall["fn"] == 0
        assert overall["precision"] == 100.0
        assert overall["recall"] == 100.0
        assert overall["f1"] == 100.0
        assert overall["tp"] == sum(
            doc[s]["tp"] for s in doc if s != "overall"
        )

    def test_table_layout(self, corpus, capsys):
        rc = main(["eval", str(corpus)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "algorithm: weighted"
        assert lines[1].split()[:4] == ["scenario", "tp", "fp", "fn"]
        assert lines[-1].startswith("overall")
        assert len(lines) == 2 + 7 + 1

    def test_algorithm_flag(self, corpus, capsys):
        rc = main(["--algorithm", "simple", "eval", str(corpus)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("algorithm: simple")

    def test_missing_dir_is_usage_error(self, workdir, capsys):
        assert main(["eval", str(workdir / "nope")]) == 2

    def test_dir_without_cases_is_usage_error(self, workdir, capsys):
        empty = workdir / "empty_corpus"
        empty.mkdir()
        assert main(["eval", str(empty)]) == 2

    def test_latin1_page_in_case(self, corpus, tmp_path, capsys):
        root = shutil.copytree(corpus, tmp_path / "corpus")
        page = root / "relabel" / "case00" / "mutated.html"
        page.write_bytes(page.read_bytes() + b"<!-- caf\xe9 -->\n")
        rc, doc = run_json(capsys, ["--format", "json", "eval", str(root)])
        assert rc == 0
        assert doc["overall"]["f1"] == 100.0

    def test_malformed_case_is_usage_error(self, corpus, tmp_path, capsys):
        root = shutil.copytree(corpus, tmp_path / "corpus")
        path = root / "wrapped" / "case00" / "wrapper.json"
        d = json.loads(path.read_bytes())
        del d["version"]
        path.write_text(json.dumps(d), encoding="utf-8")
        rc = main(["eval", str(root)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(root / "wrapped" / "case00") in err
        assert "version" in err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda t: t.update(expected=[]),
            lambda t: t.update(mapping=[]),
            lambda t: t["expected"]["record"].__setitem__(0, 5),
            lambda t: t["expected"]["record"].__setitem__(0, "0/2/0"),
            lambda t: t["expected"].__setitem__("record", 5),
            lambda t: t["mapping"].__setitem__(next(iter(t["mapping"])), "0/2"),
        ],
        ids=[
            "expected_array",
            "mapping_array",
            "expected_path_int",
            "expected_path_string",
            "expected_paths_int",
            "mapped_path_string",
        ],
    )
    def test_malformed_truth_is_usage_error(self, corpus, tmp_path, capsys, damage):
        root = shutil.copytree(corpus, tmp_path / "corpus")
        path = root / "wrapped" / "case00" / "truth.json"
        truth = json.loads(path.read_bytes())
        damage(truth)
        path.write_text(json.dumps(truth), encoding="utf-8")
        assert main(["eval", str(root)]) == 2
        assert str(root / "wrapped" / "case00") in capsys.readouterr().err


class TestHistory:
    def test_lists_versions(self, workdir, capsys):
        store = workdir / "store"
        main(
            [
                "--store",
                str(store),
                "run",
                str(workdir / "wrapper.json"),
                str(workdir / "mutated.html"),
                "--commit",
            ]
        )
        capsys.readouterr()

        rc = main(["--store", str(store), "history", "listing"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("v1")
        assert lines[1].startswith("v2")

        rc, doc = run_json(
            capsys, ["--store", str(store), "--format", "json", "history", "listing"]
        )
        assert rc == 0
        assert [r["version"] for r in doc] == [1, 2]
        assert all(len(r["content_digest"]) == 64 for r in doc)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_mistyped_log_line_is_reported_not_listed(self, workdir, capsys, fmt):
        store = workdir / "store"
        main(["--store", str(store), "run", str(workdir / "wrapper.json"),
              str(workdir / "mutated.html"), "--commit"])
        log = store / "listing" / "log.jsonl"
        lines = log.read_text().splitlines()
        record = json.loads(lines[0])
        record.update(timestamp=5, change_summary=[{"rule": 1, "trigger": [], "delta": {}}])
        log.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["--store", str(store), "--format", fmt, "history", "listing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "undecodable log line 1" in captured.err

    def test_without_store_is_usage_error(self, capsys):
        assert main(["history", "listing"]) == 2

    def test_unknown_name_is_usage_error(self, workdir, capsys):
        store = workdir / "store"
        store.mkdir()
        assert main(["--store", str(store), "history", "ghost"]) == 2

    def test_missing_store_is_not_created(self, workdir, capsys):
        store = workdir / "new" / "store"
        assert main(["--store", str(store), "history", "listing"]) == 2
        assert "no wrapper named" in capsys.readouterr().err
        assert not (workdir / "new").exists()

    def test_store_under_a_regular_file_is_usage_error(self, workdir, capsys):
        (workdir / "afile").write_text("")
        store = workdir / "afile" / "store"
        assert main(["--store", str(store), "history", "listing"]) == 2
        assert "cannot read store" in capsys.readouterr().err


SRC = str(Path(__file__).resolve().parents[1] / "src")


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def python_in_locale(locale_env: dict, *argv, cwd) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(locale_env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], capture_output=True, cwd=cwd, env=env)


def run_in_locale(locale_env: dict, *argv, cwd):
    """Run python with argv under locale_env; returns stdout bytes."""
    proc = python_in_locale(locale_env, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout


def save_cafe_wrapper(path: Path) -> None:
    """The test pages' wrapper, named with a non-ASCII letter."""
    wrapper = author_wrapper(parse_html(ORIGINAL_HTML, source_id="original"))
    save_wrapper(replace(wrapper, name="caf\xe9"), path)


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_ascii_locale_writes_what_a_utf8_locale_writes(tmp_path):
    """Every file wrapmend reads and writes is UTF-8 whatever the locale:
    build, mutate, eval and a table-format run under the C locale with
    Python's UTF-8 mode off give the bytes they give in UTF-8 mode."""
    utf8_locale = {"LC_ALL": "C", "PYTHONUTF8": "1"}
    written = []
    for name, locale_env in (("ascii", ASCII_LOCALE), ("utf8", utf8_locale)):
        work = tmp_path / name
        work.mkdir()
        (work / "page.html").write_bytes(
            ORIGINAL_HTML.replace("Alpha", "Caf\xe9").encode("utf-8")
        )
        (work / "original.html").write_text(ORIGINAL_HTML)
        save_cafe_wrapper(work / "wrapper.json")
        outputs = [
            run_in_locale(locale_env, "-m", "wrapmend.corpus", "--out", "corpus",
                          "--cases", "1", cwd=work),
            run_in_locale(locale_env, "-m", "wrapmend", "--seed", "3", "mutate",
                          "page.html", "--rate", "0.5", cwd=work),
            run_in_locale(locale_env, "-m", "wrapmend", "eval", "corpus", cwd=work),
            run_in_locale(locale_env, "-m", "wrapmend", "--format", "table", "run",
                          "wrapper.json", "original.html", cwd=work),
        ]
        written.append((outputs, tree_bytes(work)))
    (ascii_out, ascii_files), (utf8_out, utf8_files) = written
    assert ascii_out == utf8_out
    assert ascii_files == utf8_files
    assert "Caf\xe9".encode("utf-8") in ascii_files["page.mutated.html"]
    assert ascii_out[-1].startswith("caf\xe9 v1: ok\n".encode("utf-8"))


def test_name_the_file_system_cannot_encode_fails_the_commit(tmp_path):
    """Under an ASCII file system encoding a store cannot hold a wrapper
    named caf\xe9: the commit is refused as a usage error, not a crash."""
    save_cafe_wrapper(tmp_path / "wrapper.json")
    (tmp_path / "mutated.html").write_text(WRAPPED_HTML)
    proc = python_in_locale(
        ASCII_LOCALE, "-m", "wrapmend", "--store", "st", "run", "wrapper.json",
        "mutated.html", "--commit", cwd=tmp_path,
    )
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 2, err
    assert "commit failed" in err
    assert "Traceback" not in err
