"""Wrapper store: commit/checkout round trips, history, tamper detection."""

import hashlib
import json
from dataclasses import replace
from itertools import combinations

import pytest

import wrapmend.repo as repo
from conftest import random_wrapper
from test_cli import ORIGINAL_HTML, WRAPPED_HTML
from test_model import sample_wrapper, unloadable_wrapper
from wrapmend.constraints import CardinalityConstraint
from wrapmend.corpus import author_wrapper
from wrapmend.dom import DomNode, parse_html
from wrapmend.engine import ExecutionContext
from wrapmend.model import Rule, StoredExample, Wrapper, wrapper_dict, wrapper_from_dict
from wrapmend.repo import (
    ConflictError,
    CorruptionError,
    NotFoundError,
    StorageError,
    VersionRecord,
    WrapperStore,
    run_snapshot,
)
from wrapmend.xpath import FallbackPlan, parse_xpath


def bump(wrapper, version):
    return Wrapper(
        name=wrapper.name,
        version=version,
        root_rules=wrapper.root_rules,
        constraints=wrapper.constraints,
    )


def rewrite_content(wdir, content: bytes) -> None:
    """Replace v1.json by a hand edit that keeps content and log agreeing,
    so only the reader can catch what the edit broke."""
    (wdir / "v1.json").write_bytes(content)
    record = json.loads((wdir / "log.jsonl").read_text())
    record["content_digest"] = hashlib.sha256(content).hexdigest()
    (wdir / "log.jsonl").write_text(json.dumps(record, sort_keys=True) + "\n")


class TestCommitCheckout:
    def test_round_trip(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w = random_wrapper(rng, name="shop")
        record = store.commit(w, summary=[("record", "constraint_violation", "init")])
        assert record.version == 1
        assert record.parent_version is None
        assert store.checkout("shop") == w

    def test_checkout_latest_and_specific(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1)
        w2 = bump(random_wrapper(rng, name="shop"), 2)
        store.commit(w2)
        w3 = bump(random_wrapper(rng, name="shop"), 3)
        store.commit(w3)
        assert store.checkout("shop") == w3
        assert store.checkout("shop", 3) == w3
        assert store.checkout("shop", 1) == w1

    def test_version_conflict(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w = random_wrapper(rng, name="shop")
        store.commit(w)
        with pytest.raises(ConflictError):
            store.commit(w)  # version 1 again
        with pytest.raises(ConflictError):
            store.commit(bump(w, 3))  # hole in the chain

    def test_first_commit_must_be_version_one(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        with pytest.raises(ConflictError):
            store.commit(bump(random_wrapper(rng, name="shop"), 2))

    def test_missing_wrapper(self, tmp_path):
        store = WrapperStore(tmp_path)
        with pytest.raises(NotFoundError):
            store.checkout("ghost")
        with pytest.raises(NotFoundError):
            store.history("ghost")

    def test_missing_version(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        with pytest.raises(NotFoundError):
            store.checkout("shop", 99)

    def test_only_latest_or_an_int_names_a_version(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        for version in (True, 1.0, "1", None):
            with pytest.raises(NotFoundError):
                store.checkout("shop", version)

    def test_reading_a_missing_root_creates_nothing(self, tmp_path):
        store = WrapperStore(tmp_path / "absent")
        with pytest.raises(NotFoundError):
            store.history("shop")
        with pytest.raises(NotFoundError):
            store.checkout("shop")
        assert store.names() == []
        assert not (tmp_path / "absent").exists()

    def test_first_commit_creates_the_root(self, tmp_path, rng):
        store = WrapperStore(tmp_path / "a" / "store")
        w = random_wrapper(rng, name="shop")
        store.commit(w)
        assert store.names() == ["shop"]
        assert WrapperStore(tmp_path / "a" / "store").checkout("shop") == w

    def test_bad_name_rejected(self, tmp_path):
        store = WrapperStore(tmp_path)
        with pytest.raises(StorageError):
            store.checkout("../escape")

    def test_name_with_nul_rejected(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        with pytest.raises(StorageError):
            store.commit(random_wrapper(rng, name="a\0b"))
        with pytest.raises(StorageError):
            store.history("a\0b")


class TestHistory:
    def test_linear_chain(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"), timestamp="t1")
        store.commit(
            bump(random_wrapper(rng, name="shop"), 2),
            summary=[("record", "bottom_up", "threshold 0.9 -> 0.7")],
            timestamp="t2",
        )
        records = store.history("shop")
        assert [r.version for r in records] == [1, 2]
        assert [r.parent_version for r in records] == [None, 1]
        assert records[1].change_summary == (("record", "bottom_up", "threshold 0.9 -> 0.7"),)
        assert records[1].timestamp == "t2"

    def test_append_only(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        v1_bytes = (tmp_path / "shop" / "v1.json").read_bytes()
        log_lines = (tmp_path / "shop" / "log.jsonl").read_text().splitlines()
        store.commit(bump(random_wrapper(rng, name="shop"), 2))
        assert (tmp_path / "shop" / "v1.json").read_bytes() == v1_bytes
        new_lines = (tmp_path / "shop" / "log.jsonl").read_text().splitlines()
        assert new_lines[: len(log_lines)] == log_lines
        assert len(new_lines) == len(log_lines) + 1

    def test_log_lines_have_stable_key_order(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        line = (tmp_path / "shop" / "log.jsonl").read_text().splitlines()[0]
        d = json.loads(line)
        assert list(d) == sorted(d)

    def test_record_dict_round_trip(self):
        record = VersionRecord(
            version=2,
            parent_version=1,
            timestamp="2026-02-03T04:05:06+00:00",
            change_summary=(("r", "top_down", "plan regenerated"),),
            content_digest="ab" * 32,
        )
        assert VersionRecord.from_dict(record.to_dict()) == record


class TestTamper:
    def test_content_edit_detected(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        path = tmp_path / "shop" / "v1.json"
        data = path.read_bytes()
        path.write_bytes(data.replace(b" ", b"  ", 1))
        with pytest.raises(CorruptionError):
            store.checkout("shop")

    def test_deleted_content_detected(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        (tmp_path / "shop" / "v1.json").unlink()
        with pytest.raises(CorruptionError):
            store.checkout("shop")

    def test_digest_recomputation_over_history(self, tmp_path, rng):
        import hashlib

        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        store.commit(bump(random_wrapper(rng, name="shop"), 2))
        for record in store.history("shop"):
            data = (tmp_path / "shop" / ("v%d.json" % record.version)).read_bytes()
            assert hashlib.sha256(data).hexdigest() == record.content_digest


def with_stored_example(rng, name):
    """A generated wrapper whose rules include at least one stored example."""
    while True:
        w = random_wrapper(rng, name=name)
        for path, rule in w.iter_rules():
            if rule.stored_example is not None:
                return w, path


MUTABLE = (Wrapper, Rule, StoredExample, DomNode, dict, list)


def mutable_ids(root) -> set:
    """ids of the mutable objects reachable from root through attributes,
    slotted ones included, and container items; an object's own attribute
    dict is not counted."""
    seen, found, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, MUTABLE):
            found.add(id(obj))
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, frozenset)):
            stack += obj
        else:
            if hasattr(obj, "__dict__"):
                stack += vars(obj).values()
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


class TestRepeatedCheckout:
    def test_checkouts_are_equal_but_not_shared(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w, path = with_stored_example(rng, "shop")
        store.commit(w)
        first = store.checkout("shop")
        second = store.checkout("shop")
        assert first == second == w
        assert first is not second
        subtree = first.find_rule(path).stored_example.subtree
        assert subtree is not second.find_rule(path).stored_example.subtree
        subtree.children.append(DomNode("ins", text="mutated"))
        subtree.attributes["data-x"] = "1"
        third = store.checkout("shop")
        assert third == w
        assert third.find_rule(path).stored_example.subtree != subtree

    def test_mutating_a_checkout_or_the_committed_wrapper_changes_no_checkout(
        self, tmp_path, rng
    ):
        w, path = with_stored_example(rng, "shop")
        writer = WrapperStore(tmp_path)
        writer.commit(w)
        on_disk = wrapper_from_dict(wrapper_dict((tmp_path / "shop" / "v1.json").read_bytes()))
        assert on_disk == w
        # the committing store keeps what it wrote, not the caller's object
        w.find_rule(path).stored_example.subtree.attributes["data-x"] = "1"
        # a fresh store builds its first checkout from the file
        for store in (writer, WrapperStore(tmp_path)):
            for _ in range(2):
                first = store.checkout("shop")
                assert first == on_disk != w
                rule = first.find_rule(path)
                rule.constraints = ()
                rule.stored_example.residual_path = ()
                rule.stored_example.subtree.children.append(DomNode("ins", text="mutated"))
            assert store.checkout("shop") == on_disk

    def test_content_built_once_per_store(self, tmp_path, rng, monkeypatch):
        calls = []
        real = repo.wrapper_from_dict

        def counted(d):
            calls.append(1)
            return real(d)

        monkeypatch.setattr(repo, "wrapper_from_dict", counted)
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        assert len(calls) == 1  # the load-back check
        store.checkout("shop")
        assert len(calls) == 1
        fresh = WrapperStore(tmp_path)
        fresh.checkout("shop")
        assert len(calls) == 2
        fresh.checkout("shop")
        fresh.checkout("shop", 1)
        assert len(calls) == 2

    def test_another_stores_commit_is_seen(self, tmp_path, rng):
        a, b = WrapperStore(tmp_path), WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        a.commit(w1)
        assert a.checkout("shop") == w1
        w2 = bump(random_wrapper(rng, name="shop"), 2)
        b.commit(w2)
        assert a.checkout("shop") == w2
        assert a.checkout("shop", version=1) == w1
        assert a.checkout("shop") == w2

    def test_hand_edit_after_a_checkout_is_read(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w = random_wrapper(rng, name="shop")
        store.commit(w)
        wdir = tmp_path / "shop"
        d = json.loads((wdir / "v1.json").read_bytes())
        assert store.checkout("shop") == w
        d["constraints"] = [{"kind": "cardinality", "min": 0, "max": 7}]
        rewrite_content(wdir, (json.dumps(d, indent=2, sort_keys=True) + "\n").encode())
        assert store.checkout("shop").constraints == (CardinalityConstraint(0, 7),)
        d["surprise"] = True
        rewrite_content(wdir, (json.dumps(d, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(CorruptionError, match="schema violation"):
            store.checkout("shop")

    def test_byte_edit_after_a_checkout_is_corruption(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        store.checkout("shop")
        path = tmp_path / "shop" / "v1.json"
        path.write_bytes(path.read_bytes().replace(b" ", b"  ", 1))
        with pytest.raises(CorruptionError, match="digest mismatch"):
            store.checkout("shop")

    def test_checkouts_share_no_mutable_object(self, tmp_path, rng):
        w, _ = with_stored_example(rng, "shop")
        store = WrapperStore(tmp_path)
        store.commit(w)
        hits = [store.checkout("shop"), store.checkout("shop")]
        fresh = WrapperStore(tmp_path)
        miss = fresh.checkout("shop")
        checkouts = hits + [miss, fresh.checkout("shop"), w]
        reached = [mutable_ids(c) for c in checkouts]
        assert all(reached)
        for one, other in combinations(reached, 2):
            assert not one & other

    def test_schema_invalid_content_raises_every_checkout(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        wdir = tmp_path / "shop"
        d = json.loads((wdir / "v1.json").read_bytes())
        d["surprise"] = True
        rewrite_content(wdir, (json.dumps(d, indent=2, sort_keys=True) + "\n").encode())
        for _ in range(3):
            with pytest.raises(CorruptionError, match="schema violation"):
                store.checkout("shop")

    def test_non_utf8_content_is_corruption(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        wdir = tmp_path / "shop"
        # a Latin-1 hand edit of the name
        content = (wdir / "v1.json").read_bytes().replace(b'"shop"', b'"sh\xe9p"')
        rewrite_content(wdir, content)
        with pytest.raises(CorruptionError, match="not UTF-8 JSON"):
            store.checkout("shop")


class TestWritesOnlyWhatReadsBack:
    def test_first_commit_refused_leaves_no_wrapper(self, tmp_path):
        store = WrapperStore(tmp_path)
        with pytest.raises(StorageError, match="does not load back"):
            store.commit(unloadable_wrapper())
        with pytest.raises(NotFoundError):
            store.history("prefixed")
        assert not (tmp_path / "prefixed").exists()

    def test_refused_commit_keeps_the_last_good_version(self, tmp_path):
        store = WrapperStore(tmp_path)
        bad = unloadable_wrapper()
        rule = replace(bad.root_rules[0], plan=FallbackPlan(best=parse_xpath("//span")))
        good = replace(bad, root_rules=(rule,))
        store.commit(good)
        with pytest.raises(StorageError):
            store.commit(bump(bad, 2))
        assert [r.version for r in store.history("prefixed")] == [1]
        assert store.checkout("prefixed") == good
        assert sorted(p.name for p in (tmp_path / "prefixed").iterdir()) == [
            ".lock", "log.jsonl", "v1.json",
        ]

    @pytest.mark.parametrize(
        "summary",
        [
            [(1, [], {})],
            [("rule", "trigger", None)],
            [("rule", "trigger")],
            [("rule", "trigger", "delta", "extra")],
            [5],
            5,
            ["abc"],
            "abc",
        ],
    )
    def test_summary_that_would_not_read_back_is_refused(self, tmp_path, rng, summary):
        store = WrapperStore(tmp_path)
        with pytest.raises(StorageError, match="change summary"):
            store.commit(random_wrapper(rng, name="shop"), summary=summary)
        assert not (tmp_path / "shop").exists()

    @pytest.mark.parametrize("timestamp", [5, 1.5, b"2024-01-01", ["2024-01-01"]])
    def test_timestamp_that_is_no_string_is_refused(self, tmp_path, rng, timestamp):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1, timestamp="2024-01-01T00:00:00+00:00")
        log = (tmp_path / "shop" / "log.jsonl").read_bytes()
        with pytest.raises(StorageError, match="timestamp"):
            store.commit(bump(random_wrapper(rng, name="shop"), 2), timestamp=timestamp)
        assert (tmp_path / "shop" / "log.jsonl").read_bytes() == log
        assert not (tmp_path / "shop" / "v2.json").exists()
        assert store.checkout("shop") == w1

    def test_a_string_summary_and_timestamp_read_back(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        summary = [("price", "constraint_violation", "plan: a -> b")]
        record = store.commit(
            random_wrapper(rng, name="shop"), summary=summary, timestamp="2024-01-01"
        )
        assert WrapperStore(tmp_path).history("shop") == [record]
        assert record.change_summary == tuple(summary)
        assert record.timestamp == "2024-01-01"

    def test_non_finite_number_is_refused_before_writing(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1)
        log = (tmp_path / "shop" / "log.jsonl").read_bytes()
        w2 = bump(sample_wrapper(), 2)
        rule = w2.root_rules[0]
        adaptation = replace(rule.adaptation, last_chosen=float("inf"))
        w2 = replace(w2, root_rules=(replace(rule, adaptation=adaptation),))
        with pytest.raises(StorageError, match=r"last_chosen: expected a finite number"):
            store.commit(w2)
        assert (tmp_path / "shop" / "log.jsonl").read_bytes() == log
        assert not (tmp_path / "shop" / "v2.json").exists()
        assert store.checkout("shop") == w1

    def test_bad_pattern_on_disk_is_corruption(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        wdir = tmp_path / "shop"
        d = json.loads((wdir / "v1.json").read_bytes())
        d["constraints"] = [{"kind": "datatype", "datatype": "pattern", "pattern": "["}]
        rewrite_content(wdir, (json.dumps(d, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(CorruptionError, match="bad pattern"):
            store.checkout("shop")

    def test_float_residual_path_on_disk_is_corruption(self, tmp_path):
        WrapperStore(tmp_path).commit(replace(sample_wrapper(), version=1))
        wdir = tmp_path / "shop"
        d = json.loads((wdir / "v1.json").read_bytes())
        d["rules"][0]["stored_example"]["residual_path"] = [0.0]
        rewrite_content(wdir, (json.dumps(d, indent=2, sort_keys=True) + "\n").encode())
        refusal = r"schema violation at \$\.rules\[0\]\.stored_example\.residual_path\[0\]:"
        with pytest.raises(CorruptionError, match=refusal):
            WrapperStore(tmp_path).checkout("shop")  # a new store has nothing built


class TestTornLog:
    def test_torn_tail_skipped_then_truncated(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1)
        log = tmp_path / "shop" / "log.jsonl"
        acknowledged = log.read_bytes()
        # a crash mid-append: part of a record, no newline
        with open(log, "ab") as fh:
            fh.write(b'{"change_summary": [], "content_dig')
        assert store.checkout("shop") == w1
        assert [r.version for r in store.history("shop")] == [1]
        w2 = bump(random_wrapper(rng, name="shop"), 2)
        store.commit(w2)
        lines = log.read_bytes().split(b"\n")
        assert log.read_bytes().startswith(acknowledged)
        assert lines[-1] == b"" and len(lines) == 3
        assert [json.loads(x)["version"] for x in lines[:2]] == [1, 2]
        assert store.checkout("shop") == w2

    def test_torn_only_line_leaves_no_wrapper(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        (tmp_path / "shop").mkdir()
        (tmp_path / "shop" / "log.jsonl").write_bytes(b'{"version": 1, "par')
        with pytest.raises(NotFoundError):
            store.checkout("shop")
        w = random_wrapper(rng, name="shop")
        assert store.commit(w).version == 1
        assert store.checkout("shop") == w

    def test_unterminated_whole_final_record_kept(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1)
        log = tmp_path / "shop" / "log.jsonl"
        log.write_bytes(log.read_bytes().rstrip(b"\n"))
        assert store.checkout("shop") == w1
        store.commit(bump(random_wrapper(rng, name="shop"), 2))
        versions = [json.loads(x)["version"] for x in log.read_text().splitlines()]
        assert versions == [1, 2]

    def test_corrupt_middle_line_raises(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        store.commit(bump(random_wrapper(rng, name="shop"), 2))
        log = tmp_path / "shop" / "log.jsonl"
        lines = log.read_bytes().split(b"\n")
        lines[0] = lines[0][: len(lines[0]) // 2]
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptionError):
            store.checkout("shop")
        with pytest.raises(CorruptionError):
            store.history("shop")
        with pytest.raises(CorruptionError):
            store.commit(bump(random_wrapper(rng, name="shop"), 3))

    def test_terminated_undecodable_final_line_raises(self, tmp_path, rng):
        # a newline means commit fsynced the line: it was acknowledged
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        with open(tmp_path / "shop" / "log.jsonl", "ab") as fh:
            fh.write(b"{not json}\n")
        with pytest.raises(CorruptionError):
            store.checkout("shop")


MISTYPED = [
    {"version": "1"},
    {"version": 1.5},
    {"version": True},
    {"version": 0},
    {"parent_version": "0"},
    {"parent_version": 0.5},
    {"content_digest": 5},
    {"timestamp": 5},
    {"timestamp": None},
    {"change_summary": [{"rule": 1, "trigger": [], "delta": {}}]},
    {"change_summary": [{"rule": "r", "trigger": "t", "delta": None}]},
    {"change_summary": {}},
    {"change_summary": ""},
]


@pytest.mark.parametrize("fields", MISTYPED, ids=lambda d: "%s=%r" % next(iter(d.items())))
class TestMistypedLog:
    """A log line that decodes but whose version, parent, digest,
    timestamp or change summary has the wrong type is no version record."""

    def test_acknowledged_mistyped_line_is_corruption(self, tmp_path, rng, fields):
        store = WrapperStore(tmp_path)
        store.commit(random_wrapper(rng, name="shop"))
        log = tmp_path / "shop" / "log.jsonl"
        record = json.loads(log.read_bytes())
        record.update(fields)
        log.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorruptionError):
            store.history("shop")
        with pytest.raises(CorruptionError):
            store.checkout("shop")
        with pytest.raises(CorruptionError):
            store.commit(bump(random_wrapper(rng, name="shop"), 2))

    def test_unterminated_mistyped_tail_is_torn(self, tmp_path, rng, fields):
        store = WrapperStore(tmp_path)
        w1 = random_wrapper(rng, name="shop")
        store.commit(w1)
        log = tmp_path / "shop" / "log.jsonl"
        acknowledged = log.read_bytes()
        record = json.loads(acknowledged)
        record.update({"version": 2, "parent_version": 1}, **fields)
        log.write_bytes(acknowledged + json.dumps(record).encode())
        assert [r.version for r in store.history("shop")] == [1]
        assert store.checkout("shop") == w1
        w2 = bump(random_wrapper(rng, name="shop"), 2)
        store.commit(w2)
        assert [r.version for r in store.history("shop")] == [1, 2]
        assert store.checkout("shop") == w2


class TestDurability:
    @pytest.fixture
    def synced(self, monkeypatch):
        synced = []
        real = repo._fsync_dir

        def record(path):
            synced.append(str(path))
            real(path)

        monkeypatch.setattr(repo, "_fsync_dir", record)
        return synced

    def test_directory_entries_fsynced(self, tmp_path, rng, synced):
        store = WrapperStore(tmp_path)
        root, wdir = str(tmp_path), str(tmp_path / "shop")
        store.commit(random_wrapper(rng, name="shop"))
        # renamed v1.json and the wrapper directory, then the new log.jsonl
        assert synced == [wdir, root, wdir]
        del synced[:]
        store.commit(bump(random_wrapper(rng, name="shop"), 2))
        assert synced == [wdir, root]

    def test_root_fsynced_when_directory_left_without_log(
        self, tmp_path, rng, synced
    ):
        # a commit that crashed after mkdir, before any sync
        (tmp_path / "shop").mkdir()
        store = WrapperStore(tmp_path)
        root, wdir = str(tmp_path), str(tmp_path / "shop")
        w = random_wrapper(rng, name="shop")
        store.commit(w)
        assert synced == [wdir, root, wdir]
        assert store.checkout("shop") == w


class TestMany:
    def test_round_trip_many_generated_wrappers(self, tmp_path, rng):
        store = WrapperStore(tmp_path)
        for k in range(30):
            w = random_wrapper(rng, name="w%03d" % k)
            store.commit(w)
            assert store.checkout(w.name) == w
        assert len(store.names()) == 30


STAMP = "2026-01-01T00:00:00+00:00"


def snapshot(html: str) -> ExecutionContext:
    return ExecutionContext(pages=(parse_html(html, source_id="snap"),), clock=lambda: STAMP)


class TestRunSnapshot:
    def test_three_snapshot_stream(self, tmp_path):
        store = WrapperStore(tmp_path)
        authored = author_wrapper(parse_html(ORIGINAL_HTML))

        first = run_snapshot(authored, snapshot(ORIGINAL_HTML), store)
        assert (first.status, first.new_wrapper, first.committed) == ("ok", None, None)
        assert store.names() == []

        second = run_snapshot(authored, snapshot(WRAPPED_HTML), store)
        assert (second.status, second.committed) == ("adapted", 2)
        seed, repaired = store.history("listing")
        assert (seed.version, repaired.version) == (1, 2)
        assert seed.timestamp == repaired.timestamp == STAMP
        assert seed.change_summary == (("*", "import", "seeded from file"),)
        assert repaired.change_summary == tuple(
            (r.rule_name, r.trigger, r.delta_line()) for r in second.reports if r.succeeded
        )
        assert store.checkout("listing", 1) == authored
        assert store.checkout("listing", 2) == second.new_wrapper

        latest = store.checkout("listing")
        third = run_snapshot(latest, snapshot(WRAPPED_HTML), store)
        assert (latest.version, third.status, third.committed) == (2, "ok", None)
        assert third.reports == []
        assert [r.version for r in store.history("listing")] == [1, 2]

    def test_without_a_store_nothing_is_stored(self, monkeypatch):
        def touched(*args, **kwargs):
            raise AssertionError("a store was used")

        monkeypatch.setattr(WrapperStore, "commit", touched)
        monkeypatch.setattr(WrapperStore, "_scan_log", touched)
        authored = author_wrapper(parse_html(ORIGINAL_HTML))
        snap = run_snapshot(authored, snapshot(WRAPPED_HTML))
        assert (snap.status, snap.committed) == ("adapted", None)
        assert snap.new_wrapper.version == 2
