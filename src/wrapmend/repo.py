"""Versioned wrapper persistence, and the operator loop over it.

Layout: one directory per wrapper name holding v<N>.json content files
plus an append-only log.jsonl of version records.  The log is the source
of truth; content files are verified against the recorded digest on
every checkout.  A digest this store committed or built last for the
name is not built again: checkout hands out a fresh copy of the Wrapper
it built then.  Linear history only: a commit must carry exactly
latest-version-plus-one, anything else is a ConflictError and the caller
rebases on latest.  The root directory is created by the first commit,
so reading a store never creates one.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from wrapmend.dom import detach_subtree
from wrapmend.engine import ExecutionContext, execute_wrapper, page_status
from wrapmend.model import (
    Rule,
    StoredExample,
    Wrapper,
    WrapperFormatError,
    wrapper_dict,
    wrapper_from_dict,
    wrapper_json,
)


class StorageError(Exception):
    pass


class ConflictError(StorageError):
    """Committed version is not latest + 1."""


class NotFoundError(StorageError):
    """Unknown wrapper name or version."""


class CorruptionError(StorageError):
    """Stored content no longer matches its recorded digest, or the log
    holds an acknowledged line that is no version record."""


@dataclass(frozen=True)
class VersionRecord:
    version: int
    parent_version: Optional[int]
    timestamp: str
    change_summary: tuple  # of (rule_name, trigger, one-line delta)
    content_digest: str

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "parent_version": self.parent_version,
            "timestamp": self.timestamp,
            "change_summary": [
                {"rule": r, "trigger": t, "delta": d} for r, t, d in self.change_summary
            ],
            "content_digest": self.content_digest,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VersionRecord":
        return cls(
            version=d["version"],
            parent_version=d.get("parent_version"),
            timestamp=d.get("timestamp", ""),
            change_summary=tuple(
                (e["rule"], e["trigger"], e["delta"]) for e in d.get("change_summary", ())
            ),
            content_digest=d["content_digest"],
        )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_summary(entries) -> bool:
    """Whether entries are (rule, trigger, delta) triples of strings."""
    return all(len(e) == 3 and all(isinstance(x, str) for x in e) for e in entries)


def _parse_record(line: bytes) -> VersionRecord:
    """One log line; ValueError when it is not a whole version record:
    version an int >= 1, parent_version an int or null, timestamp and
    content_digest strings, change_summary a list of {rule, trigger,
    delta} strings (bool is not an int here)."""
    try:
        d = json.loads(line)
        record = VersionRecord.from_dict(d)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError("not a version record: %r" % (e,))
    if not (
        type(record.version) is int
        and record.version >= 1
        and (record.parent_version is None or type(record.parent_version) is int)
        and type(record.content_digest) is str
    ):
        raise ValueError("not a version record: version, parent or digest mistyped")
    if not (
        type(record.timestamp) is str
        and type(d.get("change_summary", [])) is list
        and _is_summary(record.change_summary)
    ):
        raise ValueError("not a version record: timestamp or change summary mistyped")
    return record


def _fsync_dir(path) -> None:
    """Make new or renamed entries in a directory durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fresh(wrapper: Wrapper) -> Wrapper:
    """A copy of a built wrapper that shares only frozen values: new
    Wrapper, Rule and StoredExample objects, each stored subtree detached
    anew, the plans, constraints, adaptation configs and templates shared."""

    def rule(r: Rule) -> Rule:
        example = r.stored_example
        if example is not None:
            example = StoredExample(
                detach_subtree(example.subtree),
                example.residual_path,
                example.captured_from,
                example.captured_at,
            )
        return Rule(
            r.name,
            r.plan,
            r.constraints,
            r.adaptation,
            example,
            r.template,
            tuple(map(rule, r.children)),
        )

    return Wrapper(
        wrapper.name, wrapper.version, tuple(map(rule, wrapper.root_rules)), wrapper.constraints
    )


class WrapperStore:
    def __init__(self, root):
        self.root = Path(root)
        # name -> (content digest, Wrapper built from that content): what
        # the last commit loaded back or the last checkout built
        self._built = {}

    def _dir(self, name: str) -> Path:
        if not name or name in (".", "..") or "/" in name or os.sep in name or "\0" in name:
            raise StorageError("bad wrapper name %r" % (name,))
        try:
            os.fsencode(name)
        except UnicodeEncodeError:
            raise StorageError("wrapper name %r is not in the file system's encoding" % (name,))
        return self.root / name

    def _scan_log(self, name: str):
        """Parse the log; returns (records, keep, sep).

        commit fsyncs each line together with its newline, so every
        acknowledged line ends in one.  An undecodable final line with
        no newline is a torn append that was never acknowledged: it is
        skipped, and keep is the byte offset it starts at, for the next
        commit to truncate to.  An undecodable line anywhere else is
        corruption.  sep is the newline the next append must write first
        when the log ends in a whole record without one.
        """
        log = self._dir(name) / "log.jsonl"
        try:
            data = log.read_bytes()
        except FileNotFoundError:
            raise NotFoundError("no wrapper named %r" % (name,))
        head, newline, tail = data.rpartition(b"\n")
        records = []
        for number, line in enumerate(head.split(b"\n"), 1):
            if line.strip():
                try:
                    records.append(_parse_record(line))
                except ValueError as e:
                    raise CorruptionError(
                        "undecodable log line %d for %r: %s" % (number, name, e)
                    )
        keep, sep = len(data), b""
        if tail.strip():
            try:
                records.append(_parse_record(tail))
                sep = b"\n"
            except ValueError:
                keep = len(head) + len(newline)
        if not records:
            raise NotFoundError("no wrapper named %r" % (name,))
        return records, keep, sep

    def commit(self, wrapper: Wrapper, summary=(), timestamp=None) -> VersionRecord:
        """Persist one new version; wrapper.version must be latest + 1.
        Only what loads back is written: a wrapper whose file would not,
        a summary entry that is not three strings (rule, trigger, delta)
        or a timestamp that is not a string is refused before anything
        touches the store."""
        wdir = self._dir(wrapper.name)
        try:
            # a string is one value, not a (rule, trigger, delta) triple
            summary = tuple(
                (entry,) if isinstance(entry, str) else tuple(entry) for entry in summary
            )
        except TypeError:
            summary = None
        if summary is None or not _is_summary(summary):
            raise StorageError("change summary entries must be (rule, trigger, delta) strings")
        if timestamp is not None and not isinstance(timestamp, str):
            raise StorageError("timestamp must be a string, not %r" % (timestamp,))
        content = wrapper_json(wrapper).encode("utf-8")
        try:
            loaded = wrapper_from_dict(wrapper_dict(content))
        except WrapperFormatError as e:
            raise StorageError(
                "%s v%d does not load back: %s" % (wrapper.name, wrapper.version, e)
            )
        wdir.mkdir(parents=True, exist_ok=True)
        lock_path = wdir / ".lock"
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                log_path = wdir / "log.jsonl"
                try:
                    records, keep, sep = self._scan_log(wrapper.name)
                    latest = records[-1].version
                    parent = latest
                except NotFoundError:
                    latest = 0
                    parent = None
                    keep, sep = 0, b""
                if wrapper.version != latest + 1:
                    raise ConflictError(
                        "expected version %d, got %d" % (latest + 1, wrapper.version)
                    )
                record = VersionRecord(
                    version=wrapper.version,
                    parent_version=parent,
                    timestamp=timestamp
                    or datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    change_summary=summary,
                    content_digest=_digest(content),
                )
                # content first, then the log line that makes it visible
                tmp = wdir / ("v%d.json.tmp" % wrapper.version)
                with open(tmp, "wb") as fh:
                    fh.write(content)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, wdir / ("v%d.json" % wrapper.version))
                # the content file's entry and the wrapper directory's are
                # durable before the log names them; the root is synced on
                # every commit, since an earlier one may have crashed
                # between mkdir and its sync
                _fsync_dir(wdir)
                _fsync_dir(self.root)
                created = not log_path.exists()
                line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
                with open(log_path, "ab") as fh:
                    # drop a torn, never-acknowledged tail before appending
                    if os.fstat(fh.fileno()).st_size > keep:
                        fh.truncate(keep)
                    fh.write(sep + line.encode("utf-8"))
                    fh.flush()
                    os.fsync(fh.fileno())
                if created:
                    _fsync_dir(wdir)
                self._built[wrapper.name] = (record.content_digest, loaded)
                return record
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def checkout(self, name: str, version="latest") -> Wrapper:
        """The wrapper at version ("latest" or an int), as new objects."""
        records = self.history(name)
        if version == "latest":
            record = records[-1]
        else:
            # True == 1 == 1.0, but only an int names a version
            named = isinstance(version, int) and not isinstance(version, bool)
            matches = [r for r in records if r.version == version] if named else []
            if not matches:
                raise NotFoundError("wrapper %r has no version %r" % (name, version))
            record = matches[0]
        path = self._dir(name) / ("v%d.json" % record.version)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CorruptionError("content file missing for %s v%d" % (name, record.version))
        if _digest(data) != record.content_digest:
            raise CorruptionError(
                "digest mismatch for %s v%d" % (name, record.version)
            )
        built = self._built.get(name)
        if built is None or built[0] != record.content_digest:
            try:
                wrapper = wrapper_from_dict(wrapper_dict(data))
            except WrapperFormatError as e:
                raise CorruptionError(
                    "unreadable content for %s v%d: %s" % (name, record.version, e)
                )
            built = self._built[name] = (record.content_digest, wrapper)
        return _fresh(built[1])

    def history(self, name: str) -> list:
        return self._scan_log(name)[0]

    def names(self) -> list:
        """Wrapper names present in the store, sorted."""
        if not self.root.exists():
            return []
        return sorted(
            p.name for p in self.root.iterdir() if (p / "log.jsonl").exists()
        )


@dataclass(frozen=True)
class Snapshot:
    results: list
    reports: list
    new_wrapper: Optional[Wrapper]  # None when nothing was repaired
    status: str  # engine.page_status
    committed: Optional[int]  # the version written to the store, if any


def run_snapshot(wrapper: Wrapper, ctx: ExecutionContext, store=None) -> Snapshot:
    """One step of the operator loop: run wrapper over the bundle and,
    given a store, commit a repaired wrapper as the next version, one
    summary line per successful repair.  A store that does not hold the
    name yet is first seeded with the wrapper that ran.  ctx.clock, when
    set, stamps the commits.  A failed commit raises StorageError."""
    results, reports, new_wrapper = execute_wrapper(wrapper, ctx)
    committed = None
    if store is not None and new_wrapper is not None:
        stamp = ctx.clock() if ctx.clock is not None else None
        try:
            store.history(wrapper.name)
        except NotFoundError:
            store.commit(wrapper, summary=(("*", "import", "seeded from file"),), timestamp=stamp)
        summary = [(r.rule_name, r.trigger, r.delta_line()) for r in reports if r.succeeded]
        committed = store.commit(new_wrapper, summary=summary, timestamp=stamp).version
    status = page_status(results, new_wrapper)
    return Snapshot(results, reports, new_wrapper, status, committed)
