"""Work-stealing batched dispatch for campaign process pools.

PR 6 made one kernel's verification cheap (~milliseconds), which inverted
the parallel campaign's cost profile: with one pickled future per task, the
orchestration overhead — a pickle/IPC round-trip per kernel plus cold
per-process plan/SMT caches — rivals the work itself, and a slow kernel at
the tail of a static partition leaves every other worker idle.  This module
replaces per-task submission with **dynamic batched dispatch from a shared
queue**:

* **batching** — workers receive *batches* of kernel tasks, amortizing the
  per-dispatch pickle/IPC cost over the whole batch; one worker invocation
  runs the batch serially and ships all results (plus its per-batch cache
  accounting) back in one envelope;
* **work stealing** — batches are handed out on demand from one shared
  queue: a worker that finishes early immediately claims the next batch,
  so remaining work migrates to fast workers instead of being pinned to a
  static ``i/n`` partition behind a straggler;
* **guided sizing** — each claimed batch takes
  ``remaining / (workers * STEAL_FACTOR)`` tasks (clamped to
  [1, ``MAX_BATCH``]): early batches are large (amortization), late
  batches shrink toward single tasks (tail balance), the classic guided
  self-scheduling schedule (Polychronopoulos & Kuck, IEEE TC 1987), so the
  size is derived from the queue and the fleet, never configured;
* **warm workers** — a pool initializer pre-seeds each worker's
  process-local plan cache (:mod:`repro.vectorizer.plancache`) with the
  campaign's scalar sources and pre-interns the small SMT constants, so no
  worker pays the cold-cache cost on its first batch; and because one pool
  serves the whole campaign, caches keep warming batch over batch;
* **fleet accounting** — every batch envelope carries the worker's
  plan-cache and solver counter *deltas* for that batch
  (:func:`counter_delta`); the campaign engine folds them into a
  fleet-wide tally (:func:`merge_counts`), so
  :class:`~repro.pipeline.campaign.CampaignSummary` reports true
  cross-process hit rates instead of the parent's (always-cold) zeros.
  Counters travel beside the results, never inside them: a job's result
  is stored exactly as the job returned it.

None of this can change a result: per-kernel seeds derive from kernel
names, so verdicts are bit-identical at any worker count, batch size and
completion order.  Fault tolerance is layered on top: a broken pool
orphans the unfinished tasks (a mid-batch worker death orphans the whole
batch — its unsent results died with it), and the campaign engine's
bisection recovery re-dispatches them through :func:`dispatch_batches`
one task per batch, so a poison task is cornered while every re-run task
still ships its counters and solved queries like any other batch.
"""

from __future__ import annotations

import contextlib
import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.campaign import JobFn, KernelTask

#: Largest batch the guided schedule hands out.  Caps the damage of one
#: lost batch (a broken pool re-executes its tasks through bisection
#: recovery) and keeps the queue deep enough that late joiners find work to
#: steal.
MAX_BATCH = 32

#: How many batches per worker the guided schedule aims to leave in the
#: queue: each claim takes ``remaining / (workers * STEAL_FACTOR)``.
STEAL_FACTOR = 2


def next_batch_size(remaining: int, workers: int, cap: int = MAX_BATCH) -> int:
    """How many tasks the next claimed batch takes off the shared queue.

    Guided self-scheduling, clamped to [1, ``cap``]; ``cap=1`` is the
    one-task-per-batch dispatch of broken-pool recovery.
    """
    if remaining <= 0:
        return 0
    guided = math.ceil(remaining / max(1, workers * STEAL_FACTOR))
    return max(1, min(cap, guided, remaining))


def counter_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """The per-counter growth between two snapshots (zero entries dropped)."""
    return {name: after[name] - before.get(name, 0)
            for name in after
            if after[name] - before.get(name, 0) > 0}


def merge_counts(total: dict[str, int], part: dict[str, int] | None) -> dict[str, int]:
    """Accumulate one integer-counter breakdown into ``total``.

    Workers report per-batch counter deltas (:func:`counter_delta`) and the
    campaign engine folds them into one fleet-wide tally with this; it also
    sums per-rule static-vetter counts across records and shard summaries.
    """
    if part:
        for name, value in part.items():
            if isinstance(value, int) and not isinstance(value, bool):
                total[name] = total.get(name, 0) + value
    return total


@dataclass
class ExecutionStats:
    """What one ``_execute`` pass actually did (vs. what was configured)."""

    #: Workers actually used: 0 when nothing was pending, 1 on the serial
    #: path, else the pool width after clamping to the pending task count.
    workers: int = 0
    #: Batches dispatched (0 on the serial path — no dispatch happened).
    batches: int = 0
    #: Fleet-wide plan-cache counters, summed over every worker's per-batch
    #: deltas (and the parent's own delta on the serial path).
    plan_cache: dict[str, int] = field(default_factory=dict)
    #: Fleet-wide solver counters (solve-cache hits/misses/stores plus the
    #: raw CDCL work: decisions/propagations/conflicts/learned/restarts),
    #: summed the same way (:mod:`repro.smt.solvecache`).
    solver: dict[str, int] = field(default_factory=dict)


def warm_worker(sources: tuple[str, ...],
                solve_entries: "tuple | list" = ()) -> None:
    """Pool initializer: pre-seed the worker's process-local caches.

    Parses every distinct scalar source of the campaign into the plan
    cache's parse table, pre-interns the small SMT constants every symexec
    run begins with, and adopts the parent's solved-query cache entries
    (:mod:`repro.smt.solvecache`) so queries another campaign already
    solved — e.g. the other SVE vector length's — are hits on the worker's
    first batch.  Initializers run before the worker's first task, so no
    batch pays the cold-cache cost.  Failures are swallowed — an unparsable
    source will surface as that kernel's own error record, never as a
    broken pool.
    """
    # Warming is best-effort: a cold worker is merely slower, and an
    # unparsable source is the kernel's own job's to report.
    with contextlib.suppress(Exception):
        from repro.smt import solvecache
        from repro.smt.terms import bv_const
        from repro.vectorizer.plancache import cached_parse

        for value in range(-1, 65):
            bv_const(value)
        solvecache.seed_entries(solve_entries)
        for source in sources:
            with contextlib.suppress(Exception):
                cached_parse(source)


def run_task_batch(job: "JobFn", tasks: "list[KernelTask]", label: str) -> dict:
    """Worker entry point: run one batch serially, return one envelope.

    The envelope carries the per-task results (in batch order, exactly as
    each job returned them, a raising job as its error record), the
    worker's plan-cache and solver counter deltas for this batch, and the
    solved-query cache entries the batch discovered (so the parent can
    adopt them).
    """
    from repro.pipeline.campaign import _run_job
    from repro.smt import solvecache
    from repro.vectorizer import plancache

    before = plancache.stats.as_dict()
    solver_before = solvecache.stats.as_dict()
    with solvecache.batch_journal() as discovered:
        results = [_run_job(job, task, label) for task in tasks]
    return {
        "results": results,
        "plan_cache": counter_delta(before, plancache.stats.as_dict()),
        "solver": counter_delta(solver_before, solvecache.stats.as_dict()),
        "solve_cache": discovered,
    }


def dispatch_batches(
    job: "JobFn",
    pending: "list[tuple[KernelTask, str]]",
    *,
    label: str,
    workers: int,
    on_result: "Callable[[KernelTask, str, dict], None]",
    stats: ExecutionStats,
    warm_sources: tuple[str, ...],
    warm_solve_entries: "list | tuple" = (),
    max_batch: int = MAX_BATCH,
) -> "list[tuple[KernelTask, str]]":
    """Run ``pending`` through one warm pool via dynamic batch claims.

    Every worker starts with :func:`warm_worker` over ``warm_sources`` and
    ``warm_solve_entries``.  Returns the tasks a broken pool orphaned (empty
    on a clean pass); the campaign engine re-dispatches those through this
    same function with ``max_batch=1``, one task per batch.  The pool can
    break at any point — while submitting, between batches, mid batch — so
    the whole pass is guarded: any task whose result did not come back is
    reported as orphaned, never lost.  ``on_result`` fires in completion order as each
    batch envelope lands, so a killed campaign keeps every batch that
    finished.
    """
    from repro.smt import solvecache

    claimable = deque(pending)
    completed: set[str] = set()

    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=warm_worker,
                                 initargs=(warm_sources, tuple(warm_solve_entries))) as pool:
            inflight: dict = {}

            def claim_and_submit() -> None:
                size = next_batch_size(len(claimable), workers, max_batch)
                if size <= 0:
                    return
                batch = [claimable.popleft() for _ in range(size)]
                future = pool.submit(run_task_batch, job,
                                     [task for task, _ in batch], label)
                inflight[future] = batch
                stats.batches += 1

            for _ in range(workers):
                claim_and_submit()
            while inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                for future in done:
                    batch = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        continue  # the batch died with its worker: orphaned
                    merge_counts(stats.plan_cache, envelope.get("plan_cache"))
                    merge_counts(stats.solver, envelope.get("solver"))
                    # Adopt the batch's freshly solved queries: later
                    # campaigns see them, and the next pool's initializer
                    # re-ships them.
                    solvecache.seed_entries(envelope.get("solve_cache") or ())
                    for (task, key), result in zip(batch, envelope["results"]):
                        completed.add(key)
                        on_result(task, key, result)
                    # The steal: this worker is free, hand it the next
                    # (adaptively smaller) slice of the shared queue.
                    claim_and_submit()
    except BrokenProcessPool:
        pass  # broke mid-submission; everything not completed is orphaned
    return [(task, key) for task, key in pending if key not in completed]
