"""Incremental re-verification and store compaction for long-lived campaigns.

A full-matrix CI sweep re-runs the whole suite after *every* change, but
most changes invalidate almost nothing: the campaign cache keys are
content-addressed — each task's key folds in the kernel source, the
candidate code, the derived seed and the ``config_fingerprint`` of the
vectorizer configuration together with the campaign's run spec — so
a planner/codegen/target/epilogue edit changes exactly the keys of the work
it affects, and an existing JSONL store already answers every key it
doesn't.  This module turns that property into a workflow:

* :func:`plan_reverify` recomputes the current configuration's task keys
  and diffs them against a store — *without executing anything* — reporting
  which kernels are up to date and which must re-run;
* :func:`reverify` executes only the changed kernels (through the ordinary
  campaign engine, with all its batching/stealing/fault tolerance) and
  splices the unchanged verdicts from the store, returning the plan plus a
  report bit-identical to a from-scratch run;
* :func:`compact_store` rewrites a long-lived JSONL store keeping only the
  live records — one (latest) result entry per key, the latest summary per
  (label, target, shard) — so stores that accumulated months of superseded
  error records, resumed passes and re-run summaries shrink back to their
  working set with byte-identical :func:`~repro.pipeline.shard.report_from_store`
  output.

Planning reads the runner's own store with the run's reuse rule, and
compaction goes through the replay and atomic writer of
:mod:`repro.pipeline.cache`, so neither can disagree with a run.

An unchanged campaign re-verified against its own store executes **zero**
jobs; that is the CI contract (the ``incremental`` job asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.pipeline.cache import latest_summaries, rewrite_store, store_live_entries
from repro.pipeline.campaign import CampaignConfig, CampaignRunner, reusable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.campaign import CampaignReport

#: The flagship campaign label incremental re-verification targets.
VECTORIZE_LABEL = "vectorize"


@dataclass(frozen=True)
class IncrementalPlan:
    """The fingerprint diff between a configuration and an existing store."""

    label: str
    #: Target ISA the tasks were fingerprinted for.
    target: str
    #: Kernels whose content-addressed key the store already answers; their
    #: verdicts splice straight from the store.
    unchanged: list[str] = field(default_factory=list)
    #: Kernels whose key is *not* in the store — new kernels, edited
    #: sources, or any config change (planner/codegen/target/epilogue/seed)
    #: that re-fingerprinted them.  Only these execute.
    changed: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.unchanged) + len(self.changed)

    @property
    def up_to_date(self) -> bool:
        """True when the store already answers every task (0 jobs to run)."""
        return not self.changed

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "target": self.target,
            "total": self.total,
            "unchanged": len(self.unchanged),
            "changed": list(self.changed),
        }


def _runner_for(store_path: str | Path,
                config: CampaignConfig | None) -> CampaignRunner:
    """A runner bound to ``store_path`` (the splice source)."""
    config = config or CampaignConfig()
    return CampaignRunner(replace(config, store_path=store_path))


def plan_reverify(
    store_path: str | Path,
    names: list[str] | None = None,
    *,
    vectorizer_config=None,
    config: CampaignConfig | None = None,
) -> IncrementalPlan:
    """Diff the current configuration's task keys against a store — dry run.

    Builds exactly the tasks :meth:`CampaignRunner.run` would execute for
    these kernels, this vectorizer config and ``config.spec``, and checks
    which keys the store already answers.  Executes nothing and writes
    nothing.  A kernel is unchanged exactly when the run would reuse its
    stored result (:func:`~repro.pipeline.campaign.reusable`, read from the
    runner's own store), so error records count as *changed*: a run
    retries them.
    """
    return _plan(_runner_for(store_path, config), names, vectorizer_config)


def _plan(runner: CampaignRunner, names: list[str] | None,
          vectorizer_config) -> IncrementalPlan:
    stored = runner.store.load()
    unchanged: list[str] = []
    changed: list[str] = []
    for task in runner.vectorize_tasks(names, vectorizer_config):
        if reusable(stored.get(task.cache_key(VECTORIZE_LABEL))):
            unchanged.append(task.kernel)
        else:
            changed.append(task.kernel)
    return IncrementalPlan(label=VECTORIZE_LABEL, target=runner.config.spec.target,
                           unchanged=unchanged, changed=changed)


def reverify(
    store_path: str | Path,
    names: list[str] | None = None,
    *,
    vectorizer_config=None,
    config: CampaignConfig | None = None,
) -> "tuple[IncrementalPlan, CampaignReport]":
    """Execute only the kernels whose fingerprints changed; splice the rest.

    Runs the flagship vectorize campaign against ``store_path``: the store
    answers every unchanged key, the changed kernels go through the
    ordinary engine (work-stealing batches, fault tolerance, persistence),
    and the returned report is bit-identical to a from-scratch run of the
    same configuration.  The plan tells you what the run is about to do;
    ``report.summary.executed`` confirms what it did (0 for an up-to-date
    store).  One runner plans and runs, so the store is read once.
    """
    runner = _runner_for(store_path, config)
    plan = _plan(runner, names, vectorizer_config)
    report = runner.run(names, vectorizer_config=vectorizer_config)
    return plan, report


@dataclass(frozen=True)
class CompactionStats:
    """What one store compaction dropped (and where the output went)."""

    path: Path
    records_before: int
    records_kept: int
    summaries_before: int
    summaries_kept: int
    bytes_before: int
    bytes_after: int

    @property
    def dropped(self) -> int:
        return (self.records_before - self.records_kept
                + self.summaries_before - self.summaries_kept)


def compact_store(path: str | Path, out_path: str | Path | None = None) -> CompactionStats:
    """Rewrite a JSONL store keeping only live records.

    Keeps the latest result entry per cache key (first-seen key order — the
    replay semantics resume, merge and reporting already apply) and the
    latest summary per (label, target, shard) (the only one
    :func:`~repro.pipeline.shard.report_from_store` aggregates), dropping
    superseded duplicates, retried error records and stale per-pass
    summaries.  ``report_from_store`` output is identical before and after.

    With no ``out_path`` the store is replaced *atomically*
    (:func:`~repro.pipeline.cache.rewrite_store`), so a reader or resuming
    campaign never observes a half-compacted store.
    """
    source = Path(path)
    live = store_live_entries(source)
    summaries = latest_summaries(live.summaries)
    bytes_before = source.stat().st_size
    destination = Path(out_path) if out_path is not None else source
    rewrite_store(destination, [*live.results.values(), *summaries])

    return CompactionStats(
        path=destination,
        records_before=live.result_lines,
        records_kept=len(live.results),
        summaries_before=len(live.summaries),
        summaries_kept=len(summaries),
        bytes_before=bytes_before,
        bytes_after=destination.stat().st_size,
    )
