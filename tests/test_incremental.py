"""Tests for incremental re-verification (fingerprint diffing against a
store) and store compaction."""

import json

from repro.pipeline import (
    CampaignConfig,
    CampaignRunner,
    compact_store,
    plan_reverify,
    report_from_store,
    reverify,
)
from repro.pipeline.campaign import KernelTask

KERNELS = ["s000", "s1119", "s121", "s212", "s271"]
MORE = ["vsumr", "vif"]


def _signature(report):
    return [(r.kernel, r.result.get("verdict"), r.result.get("final_code_sha"))
            for r in report.records]


def _seed_store(store, names=KERNELS):
    CampaignRunner(CampaignConfig(workers=1, store_path=store)).run(names)


# Module-level jobs for the compaction tests (picklable, distinguishable).

def _job_raising(task: KernelTask) -> dict:
    raise ValueError(f"injected failure on {task.kernel}")


def _job_equivalent(task: KernelTask) -> dict:
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _tasks(names):
    return [KernelTask(kernel=name, scalar_code=f"void {name}();", seed=0,
                       config_hash="cfg")
            for name in names]


class TestPlanReverify:
    def test_unchanged_store_plans_zero_work(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        plan = plan_reverify(store, KERNELS)
        assert plan.up_to_date
        assert plan.unchanged == KERNELS
        assert plan.changed == []
        assert plan.total == len(KERNELS)
        assert plan.as_dict() == {"label": "vectorize", "target": "avx2",
                                  "total": 5, "unchanged": 5, "changed": []}

    def test_config_change_refingerprints_every_kernel(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        plan = plan_reverify(store, KERNELS, config=CampaignConfig(epilogue="masked"))
        assert plan.unchanged == []
        assert plan.changed == KERNELS

    def test_target_change_refingerprints_every_kernel(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        plan = plan_reverify(store, KERNELS, config=CampaignConfig(target="neon"))
        assert plan.target == "neon"
        assert plan.changed == KERNELS

    def test_new_kernels_are_the_only_change(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        plan = plan_reverify(store, KERNELS + MORE)
        assert plan.unchanged == KERNELS
        assert plan.changed == MORE

    def test_error_records_retry_by_default_but_stick_when_disabled(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        # Supersede one record with an error (last-wins replay makes it live).
        entries = [json.loads(line) for line in store.read_text().splitlines()]
        victim = next(e for e in entries if e["type"] == "result")
        poisoned = dict(victim, result={"kernel": victim["kernel"],
                                        "verdict": "error",
                                        "error": "ValueError: boom"})
        with store.open("a") as handle:
            handle.write(json.dumps(poisoned) + "\n")

        plan = plan_reverify(store, KERNELS)
        assert plan.changed == [victim["kernel"]]
        sticky = plan_reverify(store, KERNELS,
                               config=CampaignConfig(retry_errors=False))
        assert sticky.up_to_date


class TestReverify:
    def test_up_to_date_store_executes_nothing_and_splices(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        original = CampaignRunner(
            CampaignConfig(workers=1, store_path=store)).run(KERNELS)
        plan, report = reverify(store, KERNELS)
        assert plan.up_to_date
        assert report.summary.executed == 0
        assert report.summary.resumed == len(KERNELS)
        assert report.summary.workers == 0
        assert _signature(report) == _signature(original)

    def test_only_changed_kernels_execute(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        plan, report = reverify(store, KERNELS + MORE)
        assert plan.changed == MORE
        assert report.summary.executed == len(MORE)
        assert report.summary.resumed == len(KERNELS)
        # The spliced report is bit-identical to a from-scratch run.
        scratch = CampaignRunner(CampaignConfig(workers=1)).run(KERNELS + MORE)
        assert _signature(report) == _signature(scratch)
        # And the store now answers everything.
        assert plan_reverify(store, KERNELS + MORE).up_to_date


class TestCompaction:
    def test_compact_drops_superseded_records_and_summaries(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        names = ["a", "b", "c", "d"]
        # An error-then-retry run supersedes every first-pass record.
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_raising, _tasks(names), label="compact")
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_equivalent, _tasks(names), label="compact")

        before = report_from_store(store)
        stats = compact_store(store)
        after = report_from_store(store)

        assert stats.records_before == 8
        assert stats.records_kept == 4
        assert stats.summaries_before == 2
        assert stats.summaries_kept == 1
        assert stats.dropped == 5
        assert stats.bytes_after < stats.bytes_before
        assert stats.path == store
        # Live state is untouched: latest record per key wins either way.
        assert [(r.kernel, r.result) for r in before.records] == \
               [(r.kernel, r.result) for r in after.records]
        assert all(r.result["verdict"] == "equivalent" for r in after.records)
        assert before.summary.as_dict() == after.summary.as_dict()

    def test_out_path_leaves_the_source_store_untouched(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        names = ["a", "b"]
        # An error-then-retry run supersedes every first-pass record.
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_raising, _tasks(names), label="compact")
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_equivalent, _tasks(names), label="compact")
        source_bytes = store.read_bytes()

        dest = tmp_path / "compacted" / "campaign.jsonl"
        stats = compact_store(store, out_path=dest)
        assert store.read_bytes() == source_bytes
        assert stats.path == dest
        assert _signature(report_from_store(dest)) == \
               _signature(report_from_store(store))

    def test_compacted_vectorize_store_still_answers_reverify(self, tmp_path):
        """End to end: compaction preserves the content-addressed keys, so an
        incremental re-verification of the compacted store still executes
        zero jobs and reports identically."""
        store = tmp_path / "campaign.jsonl"
        _seed_store(store)
        # Duplicating the store doubles every result line and its summary.
        store.write_text(store.read_text() * 2)
        before = report_from_store(store)
        stats = compact_store(store)
        assert stats.records_before == 2 * len(KERNELS)
        assert stats.records_kept == len(KERNELS)
        assert _signature(report_from_store(store)) == _signature(before)

        plan, report = reverify(store, KERNELS)
        assert plan.up_to_date
        assert report.summary.executed == 0
        assert _signature(report) == _signature(before)
