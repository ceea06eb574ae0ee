"""Benchmark: the fsync cost of the campaign's result store.

Every line the store appends — one per completed task, plus one summary per
run — goes through one handle that stays open for the run and is flushed
and fsync'd, so even a machine crash loses at most the line being written.
This benchmark times a 400-task campaign whose jobs are trivial, so the
appends dominate, and checks that a new runner resumes every record.
"""

import time

from repro.pipeline import CampaignConfig, CampaignRunner
from repro.pipeline.campaign import KernelTask

ENTRIES = 400
#: A payload the size of a realistic per-kernel verdict record.
VALUE = {"kernel": "s000", "verdict": "equivalent", "attempts": 3,
         "final_code_sha": "0" * 64, "stage_outcomes": {"Alive2": "equivalent"}}


def _verdict(task: KernelTask) -> dict:
    return {**VALUE, "kernel": task.kernel}


def test_fsynced_store_appends_all_reload(tmp_path):
    path = tmp_path / "campaign.jsonl"
    tasks = [KernelTask(kernel=f"k{i:03d}", scalar_code="", seed=0, config_hash="cfg")
             for i in range(ENTRIES)]
    started = time.perf_counter()
    first = CampaignRunner(CampaignConfig(workers=1, store_path=path)).run_tasks(
        _verdict, tasks, label="durability")
    elapsed = time.perf_counter() - started
    # One line per record plus the run's summary.
    assert len(path.read_text().splitlines()) == ENTRIES + 1

    again = CampaignRunner(CampaignConfig(workers=1, store_path=path)).run_tasks(
        _verdict, tasks, label="durability")
    assert again.summary.executed == 0
    assert again.summary.resumed == ENTRIES
    assert again.results() == first.results()
    print(f"\nstore append cost: {elapsed / (ENTRIES + 1):.2e} s/line (fsync'd)")
