"""Merging sharded campaign runs back into one report.

A sharded campaign runs each of N disjoint suite partitions on its own
machine (``CampaignConfig(shard=ShardSpec(i, n), store_path=...)``), each
appending to its own JSONL result store.  Because per-kernel seeds derive
from kernel names — never from suite order, worker count or shard layout —
the union of the shard stores contains exactly the records an unsharded run
would have produced, bit for bit.  This module does the offline half of the
workflow:

* :func:`merge_stores` concatenates shard result stores into one JSONL
  store, deduplicating records by cache key (and refusing to merge stores
  that *disagree* on a key, which would mean non-identical configs); a
  campaign pointed at the merged store starts fully warm on any machine;
* :func:`report_from_store` reconstructs a combined
  :class:`~repro.pipeline.campaign.CampaignReport` — per-kernel records in
  canonical suite order plus an aggregated summary — from a (merged or
  single) store, entirely offline.

A two-machine campaign is therefore: run shard ``0/2`` and ``1/2``, copy
the stores together, ``merge_stores``, ``report_from_store``, render.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.pipeline.cache import is_result_entry, iter_jsonl_dicts
from repro.pipeline.scheduler import merge_counts
from repro.targets import DEFAULT_TARGET
from repro.pipeline.campaign import (
    SOURCE_STORE,
    CampaignRecord,
    CampaignReport,
    CampaignSummary,
    count_verdicts,
    is_error_result,
)


def _iter_entries(path: Path) -> Iterator[dict]:
    """Yield the JSON objects of one JSONL store (which must exist)."""
    if not path.exists():
        raise FileNotFoundError(f"no such store: {path}")
    yield from iter_jsonl_dicts(path)


def store_live_entries(path: str | Path) -> tuple[dict[str, dict], list[dict]]:
    """Replay one store's appends: the live result entry per key, plus summaries.

    Within one store a later entry supersedes an earlier one with the same
    key (an error record retried into a result on resume) — the store's own
    replay semantics, shared by resume, :func:`merge_stores`,
    :func:`report_from_store` and store compaction
    (:func:`repro.pipeline.incremental.compact_store`).  Keys keep
    first-seen order; summaries come back verbatim in append order.
    Malformed result lines are skipped (:func:`~repro.pipeline.cache.is_result_entry`).
    """
    results: dict[str, dict] = {}
    summaries: list[dict] = []
    for entry in _iter_entries(Path(path)):
        if is_result_entry(entry):
            results[entry["key"]] = entry
        elif entry.get("type") == "summary":
            summaries.append(entry)
    return results, summaries


def merge_stores(paths: Iterable[str | Path], out_path: str | Path) -> Path:
    """Merge shard result stores into one, deduplicating records by key.

    Result entries keep first-seen order; exact duplicates (the same cache
    key with the same result — e.g. overlapping resumed runs) collapse to
    one, and an error record paired with a retried real result for the same
    key resolves to the real result (the engine's own retry semantics).
    Two stores carrying *different real* results for one key mean the
    shards did not run the same campaign, and the merge refuses.  Shard
    summaries are carried over verbatim, so :func:`report_from_store` can
    aggregate wall clock and cache accounting across machines.
    """
    out = Path(out_path)
    results: dict[str, dict] = {}
    order: list[str] = []
    summaries: list[dict] = []
    for path in paths:
        # Within one store a later entry supersedes an earlier one with the
        # same key (an error record retried into a result on resume) — that
        # is the store's own replay semantics, not a conflict.
        store_results, store_summaries = store_live_entries(path)
        summaries.extend(store_summaries)
        for key, entry in store_results.items():
            if key not in results:
                results[key] = entry
                order.append(key)
                continue
            existing = results[key]
            if existing["result"] == entry["result"]:
                continue
            # An error record and a retried success for the same key are the
            # engine's own retry semantics playing out across stores: the
            # real result wins (two distinct errors keep the first).
            if is_error_result(existing["result"]):
                if not is_error_result(entry["result"]):
                    results[key] = entry
                continue
            if is_error_result(entry["result"]):
                continue
            raise ValueError(
                f"shard stores disagree on key {key[:16]}... "
                f"(kernel {entry.get('kernel')!r}): the shards did not "
                "run identical campaign configurations"
            )
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        for key in order:
            handle.write(json.dumps(results[key]) + "\n")
        for summary in summaries:
            handle.write(json.dumps(summary) + "\n")
    return out


def _suite_order(kernels: Iterable[str]) -> list[str]:
    """Canonical suite order (unknown kernels sort after, alphabetically)."""
    from repro.tsvc import all_kernel_names

    position = {name: index for index, name in enumerate(all_kernel_names())}
    fallback = len(position)
    return sorted(kernels, key=lambda name: (position.get(name, fallback), name))


def report_from_store(path: str | Path, label: str | None = None,
                      target: str | None = None) -> CampaignReport:
    """Reconstruct a combined :class:`CampaignReport` from a (merged) store.

    ``label`` selects which campaign's records to read when the store holds
    several (required then; inferred when there is exactly one).  ``target``
    restricts a multi-target store to one ISA's records; entries written
    before stores stamped a target pass any filter (a legacy store cannot
    be split by ISA — re-run it to tag its entries).  Records come back
    in canonical suite order; the summary aggregates the latest matching
    summary per shard (wall clock, executed and cache counters sum across
    shards; the verdict counts are recomputed from the merged records).
    """
    results: dict[str, dict] = {}
    summaries: list[dict] = []
    labels_seen: list[str] = []
    for entry in _iter_entries(Path(path)):
        if is_result_entry(entry):
            # A record with no campaign label stays unlabeled: stringifying
            # it would fabricate a bogus "None" label that label inference
            # could then "succeed" with.
            raw_label = entry.get("campaign")
            entry_label = str(raw_label) if raw_label is not None else None
            if entry_label is not None and entry_label not in labels_seen:
                labels_seen.append(entry_label)
            if label is not None and entry_label != label:
                continue
            if target is not None and entry.get("target") not in (None, target):
                continue
            results[f"{entry_label}:{entry['key']}"] = entry
        elif entry.get("type") == "summary":
            summaries.append(entry)
    if label is None:
        if not labels_seen:
            raise ValueError(
                "store holds no labeled campaign records; pass label= to pick one"
            )
        if len(labels_seen) != 1:
            raise ValueError(
                f"store holds {len(labels_seen)} campaign labels "
                f"({', '.join(labels_seen)}); pass label= to pick one"
            )
        label = labels_seen[0]

    by_kernel: dict[str, dict] = {}
    for entry in results.values():
        if entry.get("campaign") != label:
            continue
        kernel = entry["kernel"]
        if kernel in by_kernel and by_kernel[kernel]["result"] != entry["result"]:
            raise ValueError(
                f"store holds conflicting results for kernel {kernel!r} under "
                f"label {label!r}; pass target= to disambiguate a multi-target store"
            )
        by_kernel[kernel] = entry
    records = [
        CampaignRecord(kernel=name, key=by_kernel[name]["key"],
                       result=by_kernel[name]["result"], source=SOURCE_STORE)
        for name in _suite_order(by_kernel)
    ]

    # A resumed or re-run shard appends a summary per pass; only the latest
    # pass per (label, target, shard) reflects that shard's final state —
    # summing all of them would double-count wall clock and cache counters.
    latest: dict[tuple, dict] = {}
    for entry in summaries:
        if entry.get("label") != label:
            continue
        # Same tolerance as the record filter: an entry with no target on
        # record (a pre-target-stamping store) matches any requested target,
        # so legacy stores keep their accounting instead of zeroing out.
        if target is not None and entry.get("target") not in (None, target):
            continue
        latest[(entry.get("label"), entry.get("target"), entry.get("shard"))] = entry
    matching = list(latest.values())
    targets = {s.get("target") for s in matching if s.get("target")}
    # Pre-dtype stores carry no dtype stamp; they were all int32 by
    # construction, so the merged summary says so rather than guessing.
    dtypes = {s.get("dtype") for s in matching if s.get("dtype")}
    plan_cache: dict[str, int] = {}
    for entry in matching:
        merge_counts(plan_cache, entry.get("plan_cache")
                     if isinstance(entry.get("plan_cache"), dict) else None)
    static_flags: dict[str, int] = {}
    for record in records:
        flags = record.result.get("static_flags")
        merge_counts(static_flags, flags if isinstance(flags, dict) else None)
    summary = CampaignSummary(
        label=label,
        kernels=len(records),
        executed=sum(s.get("executed", 0) for s in matching),
        cache_hits=sum(s.get("cache_hits", 0) for s in matching),
        cache_misses=sum(s.get("cache_misses", 0) for s in matching),
        resumed=sum(s.get("resumed", 0) for s in matching),
        wall_clock_seconds=sum(s.get("wall_clock_seconds", 0.0) for s in matching),
        workers=max((s.get("workers", 1) for s in matching), default=1),
        verdict_counts=count_verdicts(records),
        # A store with no target stamps falls back to the pipeline default
        # target — never a hardcoded ISA name.
        target=(target or (targets.pop() if len(targets) == 1
                           else ("mixed" if targets else DEFAULT_TARGET.name))),
        dtype=(dtypes.pop() if len(dtypes) == 1
               else ("mixed" if dtypes else "int32")),
        shard=None,  # a merged report covers the whole suite again
        batches=sum(s.get("batches", 0) for s in matching),
        plan_cache=plan_cache,
        static_flags=static_flags,
    )
    return CampaignReport(label=label, records=records, summary=summary)
