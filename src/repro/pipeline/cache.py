"""Content-addressed result cache for campaign runs.

Every expensive unit of campaign work — vectorizing a kernel, classifying a
sampled completion batch, running the verification funnel on a candidate —
is identified by a SHA-256 key derived from the *content* that determines
its outcome: the scalar kernel source, the candidate code (where one
exists), the configuration fingerprint and the derived per-kernel seed.
Because the key is content-addressed, a cache entry is valid forever: if any
input changes the key changes, so stale entries can never be returned.

The cache keeps everything in memory and can optionally persist to a JSONL
file (one ``{"key": ..., "value": ...}`` object per line, append-only).  A
crashed or interrupted campaign therefore loses at most the entry being
written; re-running resumes from the persisted entries.

Durability is a knob: by default every persisted entry is ``fsync``'d
(``flush_interval=1``), so even a machine crash loses at most one entry.
Suite-scale campaigns issue hundreds of puts, and one fsync per put
dominates the I/O cost; ``flush_interval=N`` batches the syncs (every N
entries plus an explicit :meth:`ResultCache.flush`, which the campaign
engine calls at the end of every run), and ``flush_interval=0`` syncs only
on :meth:`~ResultCache.flush`.  Entries are always flushed to the OS after
each put, so a crashed *process* (as opposed to a crashed machine) still
loses at most the final line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator
from typing import Any


#: Sentinel distinguishing "key absent" from "stored value is None": a cached
#: ``None`` (or any falsy value) is a legitimate result that must persist and
#: resume like any other.
_MISSING = object()


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


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (or one campaign run)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses


class ResultCache:
    """In-memory content-addressed cache with optional JSONL persistence.

    ``flush_interval`` controls durability of the JSONL file: ``1`` (the
    default) fsyncs after every entry, ``N`` fsyncs every N entries, ``0``
    fsyncs only on an explicit :meth:`flush`.
    """

    def __init__(self, path: str | Path | None = None, flush_interval: int = 1):
        if flush_interval < 0:
            raise ValueError(f"flush_interval must be >= 0, got {flush_interval}")
        self.path = Path(path) if path is not None else None
        self.flush_interval = flush_interval
        self.stats = CacheStats()
        self._entries: dict[str, Any] = {}
        self._handle = None
        self._unsynced = 0
        if self.path is not None and self.path.exists():
            for key, value in _read_jsonl_entries(self.path):
                self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Any | None:
        """Look the key up, recording a hit or a miss."""
        if key in self._entries:
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def peek(self, key: str) -> Any | None:
        """Look the key up without touching the hit/miss counters."""
        return self._entries.get(key)

    def put(self, key: str, value: Any) -> None:
        """Store a JSON-serializable value, appending to the JSONL file if any.

        The duplicate check uses a sentinel default: ``get(key) == value``
        would conflate "key absent" with "already stored ``None``", silently
        dropping a legitimately-``None`` value from the JSONL file and
        forcing a resumed run to re-execute that work.
        """
        already_stored = self._entries.get(key, _MISSING) == value
        self._entries[key] = value
        if self.path is None or already_stored:
            return
        handle = self._append_handle()
        handle.write(json.dumps({"key": key, "value": value}) + "\n")
        handle.flush()
        self._unsynced += 1
        if self.flush_interval and self._unsynced >= self.flush_interval:
            os.fsync(handle.fileno())
            self._unsynced = 0

    def compact(self) -> int:
        """Rewrite the JSONL file with one line per live key; returns lines dropped.

        The append-only file accumulates superseded lines over a cache's
        life (an error record retried into a real result appends a second
        line for the key); long-lived caches backing many campaigns reload
        every one of them on startup.  Compaction writes the in-memory
        entries — already the last-wins replay of the file, in first-seen
        key order — to a sibling temp file and atomically renames it over,
        so a crash mid-compaction leaves the original intact.
        """
        if self.path is None or not self.path.exists():
            return 0
        self.close()
        lines_before = sum(1 for _ in _read_jsonl_entries(self.path))
        temp = self.path.with_name(self.path.name + ".compact.tmp")
        with temp.open("w", encoding="utf-8") as handle:
            for key, value in self._entries.items():
                handle.write(json.dumps({"key": key, "value": value}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        return lines_before - len(self._entries)

    def flush(self) -> None:
        """Force any entries not yet fsync'd onto stable storage."""
        if self._handle is not None and self._unsynced:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self) -> None:
        """Flush pending entries and release the append handle.

        Safe to call repeatedly; the handle reopens lazily on the next
        :meth:`put`.  The campaign engine closes after every run, so idle
        runners hold no file descriptors.
        """
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __del__(self):
        # Interpreter shutdown: the OS reclaims the handle anyway.
        with contextlib.suppress(Exception):
            self.close()

    def _append_handle(self):
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def reset_stats(self) -> CacheStats:
        """Return the current stats and start a fresh counting window."""
        window = self.stats
        self.stats = CacheStats()
        return window


def iter_jsonl_dicts(path: Path) -> Iterator[dict]:
    """Yield the JSON objects of a JSONL file, tolerating a truncated tail.

    The one tolerant JSONL reader behind the result cache, the campaign
    store and the shard merger: blank lines are skipped, a half-written
    line (the crash-mid-append case) is dropped, non-dict lines are ignored.
    """
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # half-written final line of an interrupted run
            if isinstance(entry, dict):
                yield entry


def _read_jsonl_entries(path: Path) -> Iterator[tuple[str, Any]]:
    """Yield (key, value) pairs, tolerating a truncated trailing line."""
    for entry in iter_jsonl_dicts(path):
        if "key" in entry:
            yield str(entry["key"]), entry.get("value")
