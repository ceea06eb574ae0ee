"""Content addressing for campaign results.

Every expensive unit of campaign work — vectorizing a kernel, classifying a
sampled completion batch, running the verification funnel on a candidate —
is identified by a SHA-256 key derived from the *content* that determines
its outcome: the scalar kernel source, the candidate code (where one
exists), the configuration fingerprint and the derived per-kernel seed.
Because the key is content-addressed, a stored result is valid forever: if
any input changes the key changes, so stale results can never be returned.

This module holds the keying half (:func:`content_key`,
:func:`config_fingerprint`) and the one tolerant JSONL reader
(:func:`iter_jsonl_dicts`).  The map from key to result is the campaign's
result store (:mod:`repro.pipeline.campaign`): in memory for every run, and
backed by an append-only, fsync'd JSONL file when ``store_path`` is set.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from collections.abc import Iterator
from typing import Any


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


def iter_jsonl_dicts(path: Path) -> Iterator[dict]:
    """Yield the JSON objects of a JSONL file, tolerating a truncated tail.

    The one tolerant JSONL reader behind the campaign store, the shard
    merger and store compaction: blank lines are skipped, a half-written
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

