"""The campaign engine: suite-scale runs of the pipeline, in parallel.

The paper's headline experiments (Tables 1-3, Figures 5-6) all reduce to the
same shape of work: run some per-kernel job — vectorize-and-verify, sample
``n`` completions and classify them, push a candidate through the
verification funnel, simulate performance — over the whole TSVC suite.  The
seed code did this with a serial Python loop per experiment.  The campaign
engine makes the shape a first-class subsystem:

* **parallelism** — kernels fan out over a :class:`ProcessPoolExecutor`
  with a configurable worker count (``workers=0`` means one per CPU),
  dispatched as adaptively-sized *batches* claimed off one shared queue
  (:mod:`repro.pipeline.scheduler`): IPC/pickle overhead amortizes over
  each batch, fast workers steal the remaining work from stragglers, and
  a warm-worker initializer pre-seeds every worker's plan cache;
* **determinism** — every kernel gets a seed derived from
  ``(base seed, kernel name)`` (the LLM seed for the vectorize and
  experiment campaigns), so per-kernel results are byte-identical at any
  parallelism level and in any completion order;
* **caching and resumability** — every result lives in one
  content-addressed result store keyed on the kernel source, the candidate
  code where one exists, the configuration fingerprint and the derived
  seed, so re-runs and pass@k re-estimation skip work that is already
  settled; with ``store_path`` set, each completed task is also appended
  (and fsync'd) to a JSONL file, so an interrupted campaign picks up where
  it left off;
* **fault tolerance** — a raising job does not abort the campaign: the
  failure becomes a first-class error record (``verdict="error"`` with the
  message and traceback) that is persisted, counted and reported like any
  other verdict (``CampaignConfig.fail_fast=True`` restores the
  abort-on-first-failure behaviour), and a broken worker pool is rebuilt
  with the orphaned tasks resubmitted (``max_pool_retries`` bounds it);
* **sharding** — ``CampaignConfig.shard = ShardSpec(i, n)`` (or the string
  ``"i/n"``) deterministically restricts the run to the i-th of n disjoint
  partitions of the suite, keyed on a kernel-name hash, so N machines cover
  the suite exactly once at any worker count; shard stores merge back into
  one report via :mod:`repro.pipeline.shard`;
* **accounting** — each run produces a :class:`CampaignSummary` with
  verdict counts, wall clock, cache hit-rate and throughput (kernels/sec).

Jobs must be module-level callables taking one :class:`KernelTask` and
returning a JSON-serializable dict (the process pool pickles jobs by
reference).  With ``workers=1`` tasks run inline in-process, so closures
and non-picklable payloads are also accepted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback as traceback_module
from concurrent.futures.process import BrokenProcessPool
from dataclasses import KW_ONLY, dataclass, field, replace
from pathlib import Path
from collections.abc import Callable
from typing import Any, BinaryIO

from repro.perf.profile import counter_delta, merge_counts, merge_stage_seconds
from repro.pipeline.cache import config_fingerprint, content_key, iter_jsonl_dicts
from repro.pipeline.scheduler import (
    AUTO_BATCH,
    ExecutionStats,
    dispatch_batches,
    resolve_batch_setting,
)
from repro.pipeline.verdict import Verdict
from repro.runspec import RunSpec
from repro.targets import get_target, target_names

JobFn = Callable[["KernelTask"], dict]

#: Sentinel key a job's per-stage timings travel back under.  ``run_tasks``
#: pops it into the campaign accumulator before the result is cached or
#: recorded, so persisted results stay timing-free (and byte-identical
#: across worker counts and re-runs).
STAGE_SECONDS_KEY = "_stage_seconds"

#: Result-source tags recorded on every :class:`CampaignRecord`.
SOURCE_RUN = "run"
SOURCE_CACHE = "cache"
SOURCE_STORE = "store"

#: Verdict value of a job that raised instead of producing a result.
ERROR_VERDICT = "error"


def is_error_result(result: Any) -> bool:
    """True for the error records a failing job turns into (not aborts)."""
    return isinstance(result, dict) and result.get("verdict") == ERROR_VERDICT


def error_result(task: "KernelTask", label: str, error: BaseException,
                 traceback_text: str | None = None) -> dict:
    """Build the first-class record of a job failure on one kernel."""
    return {
        "kernel": task.kernel,
        "verdict": ERROR_VERDICT,
        "error": f"{type(error).__name__}: {error}",
        "error_type": type(error).__name__,
        "traceback": traceback_text,
        "campaign": label,
    }


def shard_of(kernel_name: str, count: int) -> int:
    """The shard a kernel belongs to — a pure function of its name.

    Keyed on a content hash of the name alone (never on seeds, configs or
    suite order), so every machine computes the same partition and per-kernel
    results stay bit-identical to an unsharded run.
    """
    digest = hashlib.sha256(f"shard:{kernel_name}".encode()).hexdigest()
    return int(digest[:16], 16) % count


@dataclass(frozen=True)
class ShardSpec:
    """One of ``count`` disjoint, exhaustive partitions of a suite."""

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(f"shard index must be in [0, {self.count}), got {self.index}")

    @classmethod
    def parse(cls, spec: "ShardSpec | str") -> "ShardSpec":
        """Accept a ShardSpec or the ``"i/n"`` spelling used by env knobs."""
        if isinstance(spec, cls):
            return spec
        try:
            index_text, count_text = str(spec).split("/", 1)
            return cls(index=int(index_text), count=int(count_text))
        except (ValueError, TypeError) as error:
            raise ValueError(f"shard spec must look like 'i/n', got {spec!r}") from error

    def contains(self, kernel_name: str) -> bool:
        return shard_of(kernel_name, self.count) == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def count_verdicts(records: list["CampaignRecord"]) -> dict[str, int]:
    """Tally the per-kernel verdict values (records without one are skipped)."""
    counts: dict[str, int] = {}
    for record in records:
        verdict = record.result.get("verdict")
        if verdict is not None:
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def as_campaign_runner(campaign: "CampaignRunner | CampaignConfig | None") -> "CampaignRunner":
    """Accept a runner (shared store), a config, or None (fresh defaults)."""
    if isinstance(campaign, CampaignRunner):
        return campaign
    return CampaignRunner(campaign)


def derive_kernel_seed(base_seed: int, kernel_name: str) -> int:
    """A deterministic per-kernel seed, independent of suite order and worker count."""
    digest = hashlib.sha256(f"{base_seed}:{kernel_name}".encode()).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True)
class KernelTask:
    """One unit of campaign work: a kernel plus everything its job needs."""

    kernel: str
    scalar_code: str
    seed: int
    config_hash: str
    #: Job-specific data; must be picklable when ``workers > 1``.
    payload: Any = None
    #: Candidate code, for jobs that verify an existing candidate; folding it
    #: into the cache key makes candidate-level results content-addressed.
    candidate_code: str | None = None

    def cache_key(self, label: str) -> str:
        parts = [label, self.kernel, self.scalar_code, self.config_hash, str(self.seed)]
        if self.candidate_code is not None:
            parts.append(self.candidate_code)
        return content_key(*parts)


@dataclass
class CampaignConfig:
    """Knobs of a campaign run (all deterministic at any setting).

    Every field past ``workers`` is keyword-only: campaign configurations
    are long-lived records whose call sites should read as named settings.
    """

    #: Process-pool width; 1 runs inline, 0 means one worker per CPU.
    workers: int = 1
    _: KW_ONLY
    #: Base seed; each kernel derives its own seed from (seed, kernel name).
    seed: int = 0
    #: JSONL file backing the runner's result store (optional): every
    #: completed task is appended and fsync'd, and a later runner on the same
    #: path reuses each record on it instead of re-running the task.
    store_path: str | Path | None = None
    #: The four run settings, set here once and read by every layer below
    #: through :attr:`spec`.  ``target`` is the ISA the campaign vectorizes
    #: for.  ``epilogue`` is the tail strategy (``"scalar"``, ``"masked"``
    #: or ``"predicated"``).  ``dtype`` is the lane element type
    #: (``"int16"``, ``"int32"`` or ``"int64"``); non-default dtypes load
    #: the suite retargeted, with sized ``<stdint.h>`` spellings and
    #: dtype-suffixed kernel names.  ``static_check`` is the vetting mode:
    #: ``"off"`` skips the rule-based linter, ``"advisory"`` attaches its
    #: reports and per-rule counters with every verdict bit-identical to
    #: ``"off"``, and ``"screen"`` rejects error-severity candidates before
    #: any execution (outcome ``static_reject``).  The spec is part of every
    #: vectorize task's fingerprint, so campaigns with different settings
    #: can share one cache and store without colliding on a verdict.
    target: str = "avx2"
    epilogue: str = "scalar"
    dtype: str = "int32"
    static_check: str = "advisory"
    #: Abort the campaign on the first failing job (the pre-fault-tolerance
    #: behaviour).  Off by default: failures become error records instead.
    fail_fast: bool = False
    #: Re-execute kernels whose stored result is an error record
    #: (errors are persisted for accounting, but a resumed run retries them
    #: rather than letting one crash poison every future run).  Set False to
    #: reuse error records like any other result.
    retry_errors: bool = True
    #: Broken-pool recovery budget, per task: orphaned tasks are resubmitted
    #: (bisecting batches to isolate a repeat offender), and a task that
    #: breaks its own singleton pool more than this many times is recorded
    #: as an error (or, under ``fail_fast``, aborts the campaign).
    max_pool_retries: int = 2
    #: Run only this shard of the task list (``ShardSpec`` or ``"i/n"``);
    #: None runs everything.  Sharding never changes per-kernel results —
    #: seeds derive from kernel names — so N shard stores merge back into a
    #: report bit-identical to the unsharded run (:mod:`repro.pipeline.shard`).
    shard: "ShardSpec | str | None" = None
    #: How many kernel tasks one worker dispatch carries.  ``"auto"`` (the
    #: default) uses guided self-scheduling — early batches large to
    #: amortize pickle/IPC, late batches shrinking toward singletons so the
    #: tail balances across workers; an int fixes the size (1 restores
    #: one-task-per-dispatch).  Batch size never changes a result: seeds
    #: derive from kernel names, so any batching is bit-identical.
    batch_size: int | str = AUTO_BATCH
    #: JSONL file persisting the solved-query cache
    #: (:mod:`repro.smt.solvecache`) across campaigns: loaded before tasks
    #: run, saved (with everything the fleet solved) afterwards.  A hit
    #: returns exactly what a fresh solve would, so persistence is purely a
    #: speed-up; ``None`` keeps the cache process-local.
    solve_cache_path: str | Path | None = None

    def __post_init__(self) -> None:
        # Build the spec once up front: an unknown setting raises here,
        # before any kernel runs.
        _ = self.spec

    @property
    def spec(self) -> RunSpec:
        """The run settings as the one object every layer below takes."""
        return RunSpec(target=self.target, epilogue=self.epilogue,
                       dtype=self.dtype, static_check=self.static_check)

    def resolved_shard(self) -> "ShardSpec | None":
        return ShardSpec.parse(self.shard) if self.shard is not None else None

    def resolved_batch_size(self) -> "int | str":
        return resolve_batch_setting(self.batch_size)

    def effective_workers(self) -> int:
        if self.workers <= 0:
            return max(1, os.cpu_count() or 1)
        return self.workers


@dataclass
class CampaignRecord:
    """One per-kernel result plus where it came from."""

    kernel: str
    key: str
    result: dict
    source: str = SOURCE_RUN


@dataclass
class CampaignSummary:
    """Campaign-level accounting: the numbers the ROADMAP steers by."""

    label: str
    kernels: int
    executed: int
    cache_hits: int
    cache_misses: int
    resumed: int
    wall_clock_seconds: float
    #: Workers *actually used* by this run — 1 on the serial path, the
    #: pool width after clamping to the pending task count otherwise, and 0
    #: when everything came from the store (no worker ran at all).  The
    #: configured width lives on the config; reporting it here used to
    #: overstate fully-cached and clamped runs.
    workers: int
    verdict_counts: dict[str, int] = field(default_factory=dict)
    #: Target ISA the campaign ran for.
    target: str = "avx2"
    #: Lane element type the campaign modelled kernels at.  Entries written
    #: before the dtype axis existed deserialize to the old universe's
    #: ``"int32"`` default.
    dtype: str = "int32"
    #: ``"i/n"`` when the run covered one shard of the suite; None otherwise.
    shard: str | None = None
    #: Wall-clock seconds spent per pipeline stage (parse/plan/codegen/
    #: interp/symexec/solve) across the freshly executed tasks, accumulated
    #: from the per-job profiles (:mod:`repro.perf.profile`).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: The batch-size setting the dispatcher ran with (``"auto"`` or an
    #: int); None when no batched dispatch happened (serial path, or
    #: nothing pending).
    batch_size: "int | str | None" = None
    #: Batches dispatched to the worker pool (0 on the serial path).
    batches: int = 0
    #: Fleet-wide plan-cache counters (parse/plan/vectorize hits+misses)
    #: summed over every worker's per-batch deltas — the true cross-process
    #: hit rates, not the parent's view (:mod:`repro.vectorizer.plancache`).
    plan_cache: dict[str, int] = field(default_factory=dict)
    #: Fleet-wide solver counters: solve-cache hits/misses/stores plus the
    #: raw CDCL work (decisions/propagations/conflicts/learned_clauses/
    #: restarts), summed the same way (:mod:`repro.smt.solvecache`).
    solver: dict[str, int] = field(default_factory=dict)
    #: Per-rule static-vetter error counts summed over every record's
    #: attempts (:mod:`repro.staticcheck`); empty when nothing was flagged
    #: (or the vetter was off).
    static_flags: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fleet-wide plan-cache hit rate over every counter pair."""
        hits = sum(v for k, v in self.plan_cache.items() if k.endswith("_hits"))
        misses = sum(v for k, v in self.plan_cache.items() if k.endswith("_misses"))
        return hits / (hits + misses) if hits + misses else 0.0

    @property
    def solve_cache_hit_rate(self) -> float:
        """Fleet-wide solved-query cache hit rate (SAT query batches)."""
        hits = self.solver.get("cache_hits", 0)
        misses = self.solver.get("cache_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    @property
    def throughput(self) -> "ThroughputReport":
        from repro.metrics.throughput import ThroughputReport

        return ThroughputReport(
            total_kernels=self.kernels,
            executed_kernels=self.executed,
            wall_clock_seconds=self.wall_clock_seconds,
        )

    @property
    def kernels_per_second(self) -> float:
        """Sustained rate over freshly executed work (cached results excluded:
        a fully-cached re-run reports 0, not an inflated number)."""
        return self.throughput.executed_rate

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "kernels": self.kernels,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "resumed": self.resumed,
            "wall_clock_seconds": round(self.wall_clock_seconds, 4),
            "kernels_per_second": round(self.kernels_per_second, 4),
            "effective_kernels_per_second": round(self.throughput.effective_rate, 4),
            "workers": self.workers,
            "target": self.target,
            "dtype": self.dtype,
            "verdict_counts": dict(self.verdict_counts),
            "stage_seconds": {name: round(seconds, 6)
                              for name, seconds in sorted(self.stage_seconds.items())},
            **({"shard": self.shard} if self.shard is not None else {}),
            **({"batch_size": self.batch_size} if self.batch_size is not None else {}),
            **({"batches": self.batches} if self.batches else {}),
            **({"plan_cache": dict(sorted(self.plan_cache.items())),
                "plan_cache_hit_rate": round(self.plan_cache_hit_rate, 4)}
               if self.plan_cache else {}),
            **({"solver": dict(sorted(self.solver.items())),
                "solve_cache_hit_rate": round(self.solve_cache_hit_rate, 4)}
               if self.solver else {}),
            **({"static_flags": dict(sorted(self.static_flags.items()))}
               if self.static_flags else {}),
        }


@dataclass
class CampaignReport:
    """Everything one campaign run produced, in deterministic task order."""

    label: str
    records: list[CampaignRecord]
    summary: CampaignSummary

    def results(self) -> list[dict]:
        return [record.result for record in self.records]

    def by_kernel(self) -> dict[str, dict]:
        return {record.kernel: record.result for record in self.records}


class CampaignRunner:
    """Runs per-kernel jobs over a suite with caching, resume and fan-out."""

    def __init__(self, config: CampaignConfig | None = None):
        self.config = config or CampaignConfig()
        #: The one content-addressed map from cache key to result, shared by
        #: every run of this runner and backed by ``config.store_path`` when
        #: set; it parses the file once and tracks appends incrementally.
        self.store = _ResultStore(self.config.store_path)
        #: Every summary this runner produced, in run order — the raw
        #: material for benchmark trajectories (``REPRO_BENCH_JSON``).
        self.summaries: list[CampaignSummary] = []

    # -- generic task execution -------------------------------------------------

    def run_tasks(
        self,
        job: JobFn,
        tasks: list[KernelTask],
        *,
        label: str,
        cache_accept: Callable[[dict, KernelTask], bool] | None = None,
        cache_adapt: Callable[[dict, KernelTask], dict] | None = None,
        target: str | None = None,
    ) -> CampaignReport:
        """Run ``job`` over ``tasks``; results come back in task order.

        ``cache_accept`` lets a job widen cache reuse beyond exact matches
        (for example: a stored 100-completion batch satisfies a 30-completion
        request); ``cache_adapt`` then shapes the stored value to the request.
        """
        started = time.perf_counter()
        accept = cache_accept or (lambda cached, task: True)
        adapt = cache_adapt or (lambda cached, task: cached)

        shard = self.config.resolved_shard()
        if shard is not None:
            tasks = [task for task in tasks if shard.contains(task.kernel)]
        resolved_target = target or self.config.spec.target

        store = self.store
        stored = store.load()

        def reusable(result: dict | None, task: KernelTask) -> bool:
            if result is None:
                return False
            if self.config.retry_errors and is_error_result(result):
                return False
            return accept(result, task)

        def shape(result: dict, task: KernelTask) -> dict:
            # Error records have no job-specific shape for ``cache_adapt`` to
            # slice; they pass through verbatim.
            return result if is_error_result(result) else adapt(result, task)

        # One lookup per task: a reusable entry is a cache hit, and the first
        # reuse of an entry read from ``store_path`` also counts as resumed.
        # Anything else (absent, too few stored completions, a retryable
        # error record) is a miss, and every miss executes.
        records: dict[str, CampaignRecord] = {}
        pending: list[tuple[KernelTask, str]] = []
        hits = resumed = 0
        for task in tasks:
            key = task.cache_key(label)
            found = stored.get(key)
            if not reusable(found, task):
                pending.append((task, key))
                continue
            hits += 1
            source = SOURCE_STORE if store.claim_resumed(key) else SOURCE_CACHE
            resumed += source == SOURCE_STORE
            records[key] = CampaignRecord(task.kernel, key, shape(found, task), source)

        stage_totals: dict[str, float] = {}

        def persist(task: KernelTask, key: str, result: dict) -> None:
            # The job's per-stage timings ride back on a sentinel key; pull
            # them into the campaign accumulator BEFORE the result is stored
            # or recorded — results must stay timing-free so they are
            # byte-identical at any worker count and across re-runs.
            if isinstance(result, dict):
                merge_stage_seconds(stage_totals, result.pop(STAGE_SECONDS_KEY, None))
            # Persist as each task completes (not after the pool drains), so
            # a killed campaign keeps everything that actually finished.
            store.append(label, task.kernel, key, result, target=resolved_target)
            records[key] = CampaignRecord(task.kernel, key, shape(result, task), SOURCE_RUN)

        if self.config.solve_cache_path is not None:
            from repro.smt import solvecache

            solvecache.load(self.config.solve_cache_path)

        # The store's append handle lives for this run only, so idle
        # runners hold no file descriptors (it reopens on the next append).
        try:
            execution = self._execute(job, pending, label, persist)
            if self.config.solve_cache_path is not None:
                from repro.smt import solvecache

                solvecache.save(self.config.solve_cache_path)
            ordered = [records[task.cache_key(label)] for task in tasks]
            summary = self._summarize(label, ordered, hits, resumed,
                                      len(pending), time.perf_counter() - started,
                                      target=resolved_target,
                                      shard=str(shard) if shard is not None else None,
                                      stage_seconds=stage_totals,
                                      execution=execution)
            store.append_summary(summary)
        finally:
            store.close()
        self.summaries.append(summary)
        return CampaignReport(label=label, records=ordered, summary=summary)

    # -- the flagship campaign: vectorize-and-verify the suite ---------------------

    def run(self, names: list[str] | None = None, vectorizer_config=None) -> CampaignReport:
        """Run the full FSM -> checksum -> formal-verification pipeline per kernel.

        Per-kernel seeds derive from the synthetic LLM's seed (as in the
        experiment harnesses), so varying ``config.llm.seed`` varies the
        sampled completions and the cache keys coherently.  The run settings
        are the campaign config's :attr:`CampaignConfig.spec`.
        """
        return self._run_vectorize(names, vectorizer_config, self.config.spec)

    def vectorize_tasks(self, names: list[str] | None = None,
                        vectorizer_config=None) -> list[KernelTask]:
        """The exact tasks :meth:`run` would execute.

        This is the content-addressing half of the flagship campaign split
        out from the execution half: every task's ``config_hash`` is the
        fingerprint of the vectorizer config together with the run spec,
        so incremental re-verification (:mod:`repro.pipeline.incremental`)
        can ask "which of these keys does a store already answer?" without
        running anything.
        """
        return self._vectorize_tasks(names, vectorizer_config, self.config.spec)

    def run_multi_target(self, names: list[str] | None = None, *, vectorizer_config=None,
                         targets: list[str] | None = None) -> dict[str, CampaignReport]:
        """Fan one suite run out as per-ISA campaigns sharing this runner's store.

        Each target runs as its own campaign (its workers fan out over the
        process pool as usual) against the same content-addressed result
        store, with the campaign spec's other settings unchanged; the
        spec is fingerprinted, so their entries stay disjoint.  Returns an
        ordered mapping target name -> report, so per-target summaries can
        be compared side by side.
        """
        names_in_order = [get_target(t).name for t in (targets or target_names())]
        spec = self.config.spec
        return {
            name: self._run_vectorize(names, vectorizer_config, replace(spec, target=name))
            for name in names_in_order
        }

    def _run_vectorize(self, names: list[str] | None, vectorizer_config,
                       spec: RunSpec) -> CampaignReport:
        tasks = self._vectorize_tasks(names, vectorizer_config, spec)
        return self.run_tasks(vectorize_kernel_job, tasks, label="vectorize",
                              target=spec.target)

    def _vectorize_tasks(self, names: list[str] | None, vectorizer_config,
                         spec: RunSpec) -> list[KernelTask]:
        from repro.pipeline.runner import LLMVectorizerConfig

        config = vectorizer_config or LLMVectorizerConfig()
        payload = {"config": config, "spec": spec}
        return self.suite_tasks(names, payload=payload,
                                config_hash=config_fingerprint(payload),
                                base_seed=config.llm.seed)

    def suite_tasks(
        self,
        names: list[str] | None,
        payload: Any,
        config_hash: str,
        candidates: dict[str, str] | None = None,
        base_seed: int | None = None,
    ) -> list[KernelTask]:
        """Build one task per suite kernel with the derived per-kernel seed.

        ``base_seed`` overrides the campaign seed as the derivation base —
        experiments use it so that e.g. a synthetic-LLM seed keeps selecting
        the same sampled completions regardless of campaign settings.
        """
        from repro.tsvc import load_suite

        seed = self.config.seed if base_seed is None else base_seed
        tasks = []
        for kernel in load_suite(names, dtype=self.config.spec.dtype):
            candidate = candidates.get(kernel.name) if candidates is not None else None
            if candidates is not None and candidate is None:
                continue
            tasks.append(
                KernelTask(
                    kernel=kernel.name,
                    scalar_code=kernel.source,
                    seed=derive_kernel_seed(seed, kernel.name),
                    config_hash=config_hash,
                    payload=payload,
                    candidate_code=candidate,
                )
            )
        return tasks

    # -- internals --------------------------------------------------------------

    def _execute(
        self,
        job: JobFn,
        pending: list[tuple[KernelTask, str]],
        label: str,
        on_result: Callable[[KernelTask, str, dict], None],
    ) -> ExecutionStats:
        """Run pending tasks, invoking ``on_result`` as each one completes.

        Parallel runs go through the work-stealing batch dispatcher
        (:mod:`repro.pipeline.scheduler`): workers claim adaptively-sized
        batches off one shared queue, so IPC amortizes over the batch and
        the tail balances across the fleet instead of straggling behind a
        static partition.  A broken worker pool orphans its unfinished
        batches; the orphans are re-dispatched one task per batch,
        bisecting to isolate a repeat offender — a task that still breaks its
        own singleton pool after ``max_pool_retries`` retries becomes an
        error record (or aborts the campaign under ``fail_fast``).  Returns
        what actually happened: workers used, batches dispatched, fleet
        plan-cache and solver stats.
        """
        from repro.smt import solvecache

        stats = ExecutionStats()
        if not pending:
            return stats
        fail_fast = self.config.fail_fast
        workers = min(self.config.effective_workers(), len(pending))
        if workers <= 1:
            from repro.vectorizer import plancache

            stats.workers = 1
            before = plancache.stats.as_dict()
            solver_before = solvecache.stats.as_dict()
            for task, key in pending:
                on_result(task, key, _run_job(job, task, label, fail_fast))
            merge_counts(stats.plan_cache,
                         counter_delta(before, plancache.stats.as_dict()))
            merge_counts(stats.solver,
                         counter_delta(solver_before, solvecache.stats.as_dict()))
            return stats

        stats.workers = workers
        stats.batch_size = self.config.resolved_batch_size()
        # Every pool of this pass starts with the same warm-up: the distinct
        # scalar sources in first-seen order (each pre-parsed once per
        # worker) and every solved query the parent knows (loaded from the
        # persisted file and/or adopted from earlier campaigns).
        warm_sources = tuple(dict.fromkeys(
            task.scalar_code for task, _ in pending if task.scalar_code))
        warm_solve_entries = solvecache.export_entries()

        def dispatch(batch: list[tuple[KernelTask, str]],
                     batch_setting: "int | str") -> list[tuple[KernelTask, str]]:
            return dispatch_batches(
                job, batch, label=label, workers=min(workers, len(batch)),
                batch_setting=batch_setting, fail_fast=fail_fast,
                on_result=on_result, stats=stats, warm_sources=warm_sources,
                warm_solve_entries=warm_solve_entries)

        orphaned = dispatch(pending, stats.batch_size)
        if not orphaned:
            return stats

        # Recovery by bisection, per task: a broken pool cancels everything
        # in flight, so one poison task (segfaulting its worker on every
        # attempt) orphans whole batches and a flat resubmit loop would burn
        # every task's retry budget as collateral.  Splitting the orphans
        # instead corners the culprit: halves without it complete, the half
        # with it shrinks to a singleton pool that only it can break, and
        # only that singleton consumes retries (``max_pool_retries``) before
        # erroring out.  Recovery dispatches one task per batch through the
        # same dispatcher, so re-run tasks report their counters like any
        # other batch.
        retries: dict[str, int] = {}

        def run_resilient(batch: list[tuple[KernelTask, str]]) -> None:
            remaining = dispatch(batch, 1)
            if not remaining:
                return
            if len(remaining) > 1:
                mid = len(remaining) // 2
                run_resilient(remaining[:mid])
                run_resilient(remaining[mid:])
                return
            task, key = remaining[0]
            retries[key] = retries.get(key, 0) + 1
            if retries[key] <= self.config.max_pool_retries:
                run_resilient(remaining)
                return
            message = (f"worker pool broke {retries[key]} times with kernel "
                       f"{task.kernel!r} alone in flight; giving up on it")
            if fail_fast:
                raise RuntimeError(f"campaign {label!r}: {message}")
            on_result(task, key, error_result(task, label, BrokenProcessPool(message)))

        run_resilient(orphaned)
        return stats

    def _summarize(self, label: str, records: list[CampaignRecord], hits: int,
                   resumed: int, executed: int, wall_clock: float,
                   target: str | None = None, shard: str | None = None,
                   stage_seconds: dict[str, float] | None = None,
                   execution: ExecutionStats | None = None) -> CampaignSummary:
        execution = execution or ExecutionStats()
        static_flags: dict[str, int] = {}
        for record in records:
            merge_counts(static_flags, record.result.get("static_flags"))
        return CampaignSummary(
            label=label,
            kernels=len(records),
            executed=executed,
            cache_hits=hits,
            # Every lookup that found nothing reusable executed.
            cache_misses=executed,
            resumed=resumed,
            wall_clock_seconds=wall_clock,
            workers=execution.workers,
            verdict_counts=count_verdicts(records),
            target=target or self.config.spec.target,
            dtype=self.config.spec.dtype,
            shard=shard,
            stage_seconds=dict(stage_seconds or {}),
            batch_size=execution.batch_size,
            batches=execution.batches,
            plan_cache=dict(execution.plan_cache),
            solver=dict(execution.solver),
            static_flags=static_flags,
        )


# ---------------------------------------------------------------------------
# the flagship per-kernel job
# ---------------------------------------------------------------------------


def kernel_result_record(result) -> dict:
    """Flatten a :class:`~repro.pipeline.runner.KernelRunResult` to JSON.

    The static vetter's accounting rides along only when it actually flagged
    something: ``static_flags`` sums per-rule *error* counts over every
    attempt, ``static_summary`` is the one-line report on the final attempt's
    candidate.  Records from vetter-free runs are byte-identical to before.
    """
    report = result.pipeline_report
    code = result.vectorized_code
    history = result.fsm_result.history
    static_flags: dict[str, int] = {}
    for attempt in history:
        for rule_id, count in attempt.static_flags.items():
            static_flags[rule_id] = static_flags.get(rule_id, 0) + count
    static_summary = history[-1].static_summary if history else None
    verdict = result.verdict
    deciding_stage = report.deciding_stage if report is not None else None
    if verdict is Verdict.STATIC_REJECT:
        deciding_stage = "staticcheck"
    return {
        "kernel": result.kernel.name,
        "verdict": verdict.value,
        "plausible": result.plausible,
        "attempts": result.fsm_result.attempts,
        "llm_invocations": result.fsm_result.llm_invocations,
        "deciding_stage": deciding_stage,
        "stage_outcomes": dict(report.stage_outcomes) if report is not None else {},
        "final_code": code,
        "final_code_sha": hashlib.sha256(code.encode()).hexdigest() if code else None,
        **({"static_flags": dict(sorted(static_flags.items()))} if static_flags else {}),
        **({"static_summary": static_summary}
           if static_summary and static_summary != "clean" else {}),
    }


def vectorize_kernel_job(task: KernelTask) -> dict:
    """Run the end-to-end tool on one kernel with its derived seed.

    The LLM is constructed fresh per kernel with the task seed, so the result
    depends only on (kernel, config, seed) — never on which worker ran it or
    what ran before it.
    """
    from repro.pipeline.runner import LLMVectorizer
    from repro.tsvc import load_kernel

    config = task.payload["config"]
    tool = LLMVectorizer(replace(config, llm=replace(config.llm, seed=task.seed)))
    return kernel_result_record(tool.vectorize(load_kernel(task.kernel), task.payload["spec"]))


# ---------------------------------------------------------------------------
# the JSONL result store
# ---------------------------------------------------------------------------


def _run_job(job: JobFn, task: KernelTask, label: str, fail_fast: bool = False) -> dict:
    from repro.perf import profile

    before = profile.snapshot()
    try:
        result = job(task)
    except Exception as error:
        if fail_fast:
            raise RuntimeError(
                f"campaign {label!r}: job failed on kernel {task.kernel!r}: {error}"
            ) from error
        result = error_result(task, label, error,
                              traceback_text=traceback_module.format_exc())
    return _attach_stage_seconds(result, before, profile.snapshot())


def _attach_stage_seconds(result: dict, before: dict[str, float],
                          after: dict[str, float]) -> dict:
    """Annotate ``result`` with the stage seconds this job accounted for.

    Snapshot deltas (not resets) so inline execution (``workers=1``) never
    clobbers profiling state accumulated outside the campaign engine.
    """
    if not isinstance(result, dict):
        return result
    delta = {name: round(seconds - before.get(name, 0.0), 6)
             for name, seconds in after.items()
             if seconds > before.get(name, 0.0)}
    if delta:
        result = dict(result)
        result[STAGE_SECONDS_KEY] = delta
    return result


class _ResultStore:
    """The runner's one content-addressed map from cache key to result.

    The map always lives in memory.  With a ``path`` it is also backed by an
    append-only JSONL file of result lines plus one summary line per run.
    :meth:`load` parses the file at most once per instance and
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
            self._results = {}
            if self.path is not None and self.path.exists():
                for entry in iter_jsonl_dicts(self.path):
                    if entry.get("type") == "result":
                        self._results[str(entry["key"])] = entry["result"]
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

    def append_summary(self, summary: CampaignSummary) -> None:
        self._write({"type": "summary", **summary.as_dict()})

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
