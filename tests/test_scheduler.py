"""Tests for work-stealing batched dispatch: guided batch sizing,
bit-identical results at any worker count and with one task per batch,
fault containment inside batches, warm workers, and fleet-wide cache
accounting."""

import math
import os

import pytest

from repro.pipeline import CampaignConfig, CampaignRunner, next_batch_size
from repro.pipeline.campaign import KernelTask, vectorize_kernel_job
from repro.pipeline.scheduler import (
    MAX_BATCH,
    STEAL_FACTOR,
    ExecutionStats,
    dispatch_batches,
    run_task_batch,
    warm_worker,
)
from test_sve import AVX2_GOLDEN

GOLDEN_KERNELS = [kernel for kernel, _, _ in AVX2_GOLDEN]


def _signature(report):
    return [(r.kernel, r.result.get("verdict"), r.result.get("final_code_sha"))
            for r in report.records]


# Module-level jobs: the process pool pickles jobs by reference.

def _job_ok(task: KernelTask) -> dict:
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _job_failing_on_s111(task: KernelTask) -> dict:
    if task.kernel == "s111":
        raise ValueError(f"injected failure on {task.kernel}")
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _job_killing_worker(task: KernelTask) -> dict:
    """Kernel 'killer' hard-kills its worker (simulated segfault)."""
    if task.kernel == "killer":
        os._exit(1)
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _tasks(names):
    return [KernelTask(kernel=name, scalar_code="", seed=0, config_hash="cfg")
            for name in names]


class TestBatchSizing:
    def test_auto_is_guided_self_scheduling(self):
        # Early claims amortize (large, capped); tail claims balance (small).
        guided = math.ceil(149 / (2 * STEAL_FACTOR))
        assert next_batch_size(149, 2) == min(MAX_BATCH, guided)
        assert next_batch_size(10_000, 1) == MAX_BATCH
        assert next_batch_size(5, 4) == 1
        assert next_batch_size(1, 8) == 1
        assert next_batch_size(0, 8) == 0
        # Recovery's cap of one claims singletons off any queue.
        assert next_batch_size(149, 2, cap=1) == 1

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_auto_schedule_drains_any_queue_exactly(self, workers):
        remaining, sizes = 149, []
        while remaining:
            size = next_batch_size(remaining, workers)
            assert 1 <= size <= min(MAX_BATCH, remaining)
            remaining -= size
            sizes.append(size)
        assert sum(sizes) == 149
        assert sizes == sorted(sizes, reverse=True)  # monotone non-increasing
        assert sizes[-1] == 1  # the tail always balances down to singletons


class TestBatchEnvelope:
    def test_envelope_carries_results_in_batch_order(self):
        envelope = run_task_batch(_job_ok, _tasks(["k0", "k1", "k2"]), "t")
        assert [r["kernel"] for r in envelope["results"]] == ["k0", "k1", "k2"]
        assert isinstance(envelope["plan_cache"], dict)

    def test_failure_becomes_an_error_record_mid_batch(self):
        envelope = run_task_batch(_job_failing_on_s111,
                                  _tasks(["a", "s111", "z"]), "t")
        assert [r["kernel"] for r in envelope["results"]] == ["a", "s111", "z"]
        assert envelope["results"][1]["verdict"] == "error"


class TestDeterminismGrid:
    """The scheduling contract: verdicts and final-code SHAs are bit-identical
    at every worker count and with one task per batch — and identical to the
    pinned AVX2 golden record, so the grid can never drift together."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_grid_matches_the_golden_record(self, workers):
        runner = CampaignRunner(CampaignConfig(workers=workers))
        assert _signature(runner.run(GOLDEN_KERNELS)) == AVX2_GOLDEN

    def test_one_task_per_batch_matches_the_golden_record(self):
        """Broken-pool recovery dispatches one task per batch; that schedule
        reproduces the golden record too."""
        tasks = CampaignRunner().vectorize_tasks(GOLDEN_KERNELS)
        results = {}

        def collect(task, key, result):
            results[key] = result

        stats = ExecutionStats()
        orphaned = dispatch_batches(
            vectorize_kernel_job, [(task, task.kernel) for task in tasks],
            label="vectorize", workers=2, on_result=collect, stats=stats,
            warm_sources=(), max_batch=1)
        assert orphaned == []
        assert stats.batches == len(GOLDEN_KERNELS)
        assert [(kernel, results[kernel]["verdict"], results[kernel]["final_code_sha"])
                for kernel in GOLDEN_KERNELS] == AVX2_GOLDEN


class TestWorkerAccounting:
    def test_serial_run_records_one_worker_and_no_batches(self):
        report = CampaignRunner(CampaignConfig(workers=1)).run(["s000"])
        assert report.summary.workers == 1
        assert report.summary.batches == 0

    def test_pool_width_clamps_to_the_pending_task_count(self):
        report = CampaignRunner(CampaignConfig(workers=8)).run(["s000", "s1119"])
        assert report.summary.workers == 2

    def test_fully_cached_rerun_uses_zero_workers(self):
        runner = CampaignRunner(CampaignConfig(workers=4))
        runner.run(GOLDEN_KERNELS[:4])
        again = runner.run(GOLDEN_KERNELS[:4])
        assert again.summary.executed == 0
        assert again.summary.workers == 0


class TestFleetAccounting:
    def test_parallel_summary_reports_fleet_plan_cache_stats(self):
        runner = CampaignRunner(CampaignConfig(workers=2))
        summary = runner.run(GOLDEN_KERNELS[:6]).summary
        assert summary.workers == 2
        assert summary.batches >= 2
        assert summary.plan_cache  # the per-batch deltas made it home
        assert 0.0 <= summary.plan_cache_hit_rate <= 1.0
        payload = summary.as_dict()
        assert "batch_size" not in payload
        assert payload["batches"] == summary.batches
        assert payload["plan_cache"] == summary.plan_cache

    def test_warm_worker_tolerates_garbage_sources(self):
        warm_worker(("void ok(int n) { }", "$$$ not C at all", ""))


class TestFaultContainment:
    def test_poison_task_inside_a_batch_gets_exactly_one_error(self):
        """A worker dying mid-batch orphans the whole batch; bisection
        recovery re-runs the orphans and corners the poison task alone."""
        names = ["killer"] + [f"t{i:02d}" for i in range(11)]
        runner = CampaignRunner(CampaignConfig(workers=2))
        report = runner.run_tasks(_job_killing_worker, _tasks(names),
                                  label="storm")
        by_kernel = report.by_kernel()
        assert report.summary.verdict_counts == {"equivalent": 11, "error": 1}
        assert by_kernel["killer"]["verdict"] == "error"
        assert "pool" in by_kernel["killer"]["error"]

    def test_batched_raising_job_does_not_abort_the_campaign(self):
        names = ["a", "s111", "c", "d", "e", "f"]
        runner = CampaignRunner(CampaignConfig(workers=2))
        report = runner.run_tasks(_job_failing_on_s111, _tasks(names),
                                  label="faulty")
        assert report.summary.verdict_counts == {"equivalent": 5, "error": 1}
        assert report.by_kernel()["s111"]["verdict"] == "error"
