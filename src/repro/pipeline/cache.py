"""Content addressing for campaign results, and the store's one line format.

Every expensive unit of campaign work — vectorizing a kernel, classifying a
sampled completion batch, running the verification funnel on a candidate —
is identified by a SHA-256 key derived from the *content* that determines
its outcome: the scalar kernel source, the candidate code (where one
exists), the configuration fingerprint and the derived per-kernel seed.
Because the key is content-addressed, a stored result is valid forever: if
any input changes the key changes, so stale results can never be returned.

This module holds the keying half (:func:`content_key`,
:func:`config_fingerprint`) and all that knows the line format of the JSONL
result store: the one replay (:func:`store_live_entries`), the one rule for
which summaries are live (:func:`latest_summaries`), the one whole-store
writer (:func:`rewrite_store`) and the runner's appending store
(:class:`ResultStore`).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO


def content_key(*parts: str) -> str:
    """SHA-256 key over length-prefixed parts (no separator ambiguity)."""
    digest = hashlib.sha256()
    for part in parts:
        encoded = part.encode()
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()


def config_fingerprint(obj: Any) -> str:
    """A stable fingerprint of a (nested dataclass) configuration object.

    Everything a job's outcome depends on must be inside ``obj`` — the
    vectorize payload carries its :class:`~repro.runspec.RunSpec`, the
    experiment payloads their target — so campaigns with different settings
    never collide on a cached entry.
    """
    import dataclasses

    def normalize(value: Any) -> Any:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                "__dataclass__": type(value).__name__,
                **{f.name: normalize(getattr(value, f.name)) for f in dataclasses.fields(value)},
            }
        if isinstance(value, dict):
            return {str(k): normalize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
        if isinstance(value, (list, tuple)):
            return [normalize(v) for v in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    return content_key(json.dumps(normalize(obj), sort_keys=True))


@dataclass(frozen=True)
class LiveEntries:
    """One store's replay; unpacks as ``results, summaries``."""

    #: The live result line per key, keys in first-seen order.
    results: dict[str, dict]
    #: Every summary line, in append order.
    summaries: list[dict]
    #: Result lines read, superseded and malformed ones included.
    result_lines: int = field(compare=False)

    def __iter__(self):
        return iter((self.results, self.summaries))


def store_live_entries(path: str | Path) -> LiveEntries:
    """Replay one store's appends: the live result line per key, plus summaries.

    Blank, torn (the crash-mid-append case) and non-object lines are
    skipped, and so is any result line whose ``key`` or ``kernel`` is not a
    string or whose ``result`` is not an object, so a hostile or
    hand-edited store never crashes a reader.  A later result line
    supersedes an earlier one with the same key (an error record retried
    into a result on resume).  A missing store raises ``FileNotFoundError``.
    """
    results: dict[str, dict] = {}
    summaries: list[dict] = []
    result_lines = 0
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            try:
                entry = json.loads(line.strip())
            except json.JSONDecodeError:
                continue  # blank, or the half-written final line of a crash
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "summary":
                summaries.append(entry)
            elif entry.get("type") == "result":
                result_lines += 1
                if (isinstance(entry.get("key"), str) and isinstance(entry.get("kernel"), str)
                        and isinstance(entry.get("result"), dict)):
                    results[entry["key"]] = entry
    return LiveEntries(results, summaries, result_lines)


def latest_summaries(summaries: Iterable[dict]) -> list[dict]:
    """The last summary per (label, target, shard).

    A resumed or re-run shard appends a summary per pass, and only the
    latest reflects that shard's final state: summing all of them would
    double-count wall clock and cache counters.
    """
    latest: dict[tuple, dict] = {}
    for entry in summaries:
        latest[(entry.get("label"), entry.get("target"), entry.get("shard"))] = entry
    return list(latest.values())


def rewrite_store(path: str | Path, entries: Iterable[dict]) -> Path:
    """Replace the store at ``path`` with ``entries``, atomically and durably.

    The lines go to a temp file next to the store, which is flushed,
    fsync'd and moved into place, so a reader or a resuming campaign never
    sees a half-written store, even when ``path`` is one of the inputs.  On
    any failure the temp file is removed and the store is left as it was.
    Returns the store's path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


class ResultStore:
    """The runner's one content-addressed map from cache key to result.

    The map always lives in memory.  With a ``path`` it is also backed by an
    append-only JSONL file of result lines plus one summary line per run.
    :meth:`load` replays the file at most once per instance and
    :meth:`append` updates the map incrementally, so a runner making many
    ``run_tasks`` calls (``run_multi_target``, the experiment harnesses)
    re-reads nothing, while a *new* runner on the same path still sees
    everything earlier runners appended.  Each line goes through one handle
    that stays open for the run and is flushed and fsync'd, so even a
    machine crash loses at most the line being written; :meth:`close` ends
    the run.
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._results: dict[str, dict] | None = None
        #: Keys read from ``path`` whose entry no run has reused yet.
        self._unclaimed: set[str] = set()
        self._handle: BinaryIO | None = None

    def load(self) -> dict[str, dict]:
        """Map cache key -> result for every completed task on record."""
        if self._results is None:
            live = (store_live_entries(self.path).results
                    if self.path is not None and self.path.exists() else {})
            self._results = {key: entry["result"] for key, entry in live.items()}
            self._unclaimed = set(self._results)
        return self._results

    def claim_resumed(self, key: str) -> bool:
        """True on the first reuse of an entry that was read from the file."""
        if key in self._unclaimed:
            self._unclaimed.remove(key)
            return True
        return False

    def append(self, label: str, kernel: str, key: str, result: dict,
               target: str | None = None) -> None:
        self.load()[key] = result
        self._unclaimed.discard(key)
        entry = {"type": "result", "campaign": label, "kernel": kernel,
                 "key": key, "result": result}
        if target is not None:
            entry["target"] = target
        self._write(entry)

    def append_summary(self, summary: dict) -> None:
        """Append one run's summary, given as ``CampaignSummary.as_dict()``."""
        self._write({"type": "summary", **summary})

    def close(self) -> None:
        """Release the append handle; the next append reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write(self, entry: dict) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self._handle = self._open()
        self._handle.write(json.dumps(entry).encode() + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _open(self) -> BinaryIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = self.path.open("ab")
        if handle.tell():
            # A crash mid-append leaves a final line with no newline.  Start
            # on a fresh line, or this run's first record would be glued onto
            # the torn one and dropped with it on the next read.
            with self.path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    handle.write(b"\n")
        return handle
