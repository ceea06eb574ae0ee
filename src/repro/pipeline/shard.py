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

Both read stores through the one replay of :mod:`repro.pipeline.cache`, and
a merge writes its output through that module's atomic whole-store writer.

A two-machine campaign is therefore: run shard ``0/2`` and ``1/2``, copy
the stores together, ``merge_stores``, ``report_from_store``, render.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Iterable

from repro.pipeline.cache import latest_summaries, rewrite_store, store_live_entries
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


def merge_stores(paths: Iterable[str | Path], out_path: str | Path) -> Path:
    """Merge shard result stores into one, deduplicating records by key.

    Each store is replayed first (:func:`~repro.pipeline.cache.store_live_entries`:
    within one store a later entry supersedes an earlier one with the same
    key).  Result entries keep first-seen order; exact duplicates (the same
    cache key with the same result — e.g. overlapping resumed runs) collapse
    to one, and an error record paired with a retried real result for the
    same key resolves to the real result (the engine's own retry semantics).
    Two stores carrying *different real* results for one key mean the
    shards did not run the same campaign, and the merge refuses.  Shard
    summaries are carried over verbatim, so :func:`report_from_store` can
    aggregate wall clock and cache accounting across machines.  The output
    is written atomically (:func:`~repro.pipeline.cache.rewrite_store`), so
    ``out_path`` may be one of the inputs.
    """
    results: dict[str, dict] = {}
    summaries: list[dict] = []
    for path in paths:
        store_results, store_summaries = store_live_entries(path)
        summaries.extend(store_summaries)
        for key, entry in store_results.items():
            kept = results.setdefault(key, entry)["result"]
            # An error record and a retried success for the same key are the
            # engine's own retry semantics playing out across stores: the
            # real result wins (two distinct errors keep the first).
            if kept == entry["result"] or is_error_result(entry["result"]):
                continue
            if is_error_result(kept):
                results[key] = entry
                continue
            raise ValueError(
                f"shard stores disagree on key {key[:16]}... "
                f"(kernel {entry.get('kernel')!r}): the shards did not "
                "run identical campaign configurations"
            )
    return rewrite_store(out_path, [*results.values(), *summaries])


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
    results, summaries = store_live_entries(path)
    if label is None:
        # Only a string labels a record: ``selected`` below compares with
        # the label inferred here, so inferring "7" from ``"campaign": 7``
        # (or "None" from no label) would select none of its own records.
        labels_seen = list(dict.fromkeys(entry["campaign"] for entry in results.values()
                                         if isinstance(entry.get("campaign"), str)))
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

    def selected(entry: dict, label_field: str) -> bool:
        # An entry with no target on record (a pre-target-stamping store)
        # matches any requested target, so legacy stores keep their records
        # and accounting instead of zeroing out.
        return (entry.get(label_field) == label
                and (target is None or entry.get("target") in (None, target)))

    by_kernel: dict[str, dict] = {}
    for entry in results.values():
        if not selected(entry, "campaign"):
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

    matching = [entry for entry in latest_summaries(summaries) if selected(entry, "label")]
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
