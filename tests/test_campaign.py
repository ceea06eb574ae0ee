"""Tests for the campaign engine: caching, determinism, resume, accounting,
fault tolerance."""

import ast
import dataclasses
import inspect
import json
import os
from pathlib import Path

import pytest

from repro.agents.fsm import FSMConfig
from repro.experiments import run_checksum_evaluation, run_fsm_evaluation
from repro.llm.client import LLMClient, LLMCompletion
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline import (
    CampaignConfig,
    CampaignRunner,
    CampaignSummary,
    LLMVectorizer,
    LLMVectorizerConfig,
    compact_store,
    content_key,
    derive_kernel_seed,
    report_from_store,
    store_live_entries,
)
from repro.pipeline.campaign import KernelTask, vectorize_kernel_job
from repro.tsvc import load_kernel
from repro.verdict import Verdict

# A mixed TSVC subset: easy, reduction, dependence, control-flow and hard
# (unvectorizable) kernels — enough variety to exercise every verdict path.
SUBSET = ["s000", "s111", "s112", "s113", "s1119", "s121",
          "s122", "s212", "s271", "s321", "vsumr", "vif"]


# Module-level jobs: the process pool pickles jobs by reference, so the
# fault-tolerance tests must not use closures.

def _job_failing_on_s111(task: KernelTask) -> dict:
    """An always-raising kernel amid healthy ones."""
    if task.kernel == "s111":
        raise ValueError(f"injected failure on {task.kernel}")
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _job_fine(task: KernelTask) -> dict:
    return {"kernel": task.kernel, "verdict": "equivalent"}


def _job_empty(task: KernelTask) -> dict:
    return {}


def _job_killing_s000_once(task: KernelTask) -> dict:
    """``s000`` hard-kills its worker on its first attempt only; every
    attempt that survives runs the real vectorize job."""
    marker = task.payload["marker"]
    if task.kernel == "s000" and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return vectorize_kernel_job(task)


def _job_killing_worker(task: KernelTask) -> dict:
    """Kernel 'killer' hard-kills its worker process (simulated segfault).

    With a marker path as payload it kills only once — the first attempt
    leaves the marker behind and the resubmitted attempt succeeds.  With no
    payload it kills on every attempt.
    """
    if task.kernel == "killer":
        marker = task.payload
        if marker is None or not os.path.exists(marker):
            if marker is not None:
                open(marker, "w").close()
            os._exit(1)
    return {"kernel": task.kernel, "verdict": "equivalent"}


class TestResultCache:
    """The runner's result cache is its one store: in memory, and fsync'd
    JSONL on disk when ``store_path`` is set."""

    def test_content_key_is_separator_unambiguous(self):
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("a", "b") != content_key("ab")

    def test_jsonl_persistence_roundtrip(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        tasks = _suite_tasks(["a", "b"])
        first = CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_fine, tasks, label="trip")
        reloaded = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        assert reloaded.store.load() == {record.key: record.result
                                         for record in first.records}
        report = reloaded.run_tasks(_job_empty, tasks, label="trip")
        assert report.summary.executed == 0
        assert report.results() == first.results()

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        tasks = _suite_tasks(["a", "b"])
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_fine, tasks, label="torn")
        with store.open("a") as handle:
            handle.write('{"type": "result", "key": "half-writ')  # crash mid-append
        resumed = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        assert len(resumed.store.load()) == 2
        report = resumed.run_tasks(_job_fine, tasks, label="torn")
        assert report.summary.executed == 0
        assert report.summary.resumed == 2

    def test_first_record_after_a_torn_line_survives(self, tmp_path):
        """The next run starts on a fresh line: its first record used to be
        glued onto the torn one, dropped with it, and executed again."""
        store = tmp_path / "campaign.jsonl"
        seeded, extra = _suite_tasks(["a", "b"]), _suite_tasks(["c", "d"])
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_fine, seeded, label="torn")
        with store.open("a") as handle:
            handle.write('{"type": "result", "key": "half-writ')
        after_crash = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        assert after_crash.run_tasks(_job_fine, seeded + extra,
                                     label="torn").summary.executed == 2
        again = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        report = again.run_tasks(_job_fine, seeded + extra, label="torn")
        assert report.summary.executed == 0
        assert report.summary.resumed == 4

    def test_falsy_result_persists_and_resumes(self, tmp_path):
        """``{}`` is a result like any other: it persists and resumes, never
        mistaken for "key absent"."""
        store = tmp_path / "campaign.jsonl"
        tasks = _suite_tasks(["a", "b"])
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_empty, tasks, label="falsy")
        resumed = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        report = resumed.run_tasks(_job_fine, tasks, label="falsy")
        assert report.summary.executed == 0
        assert report.summary.resumed == 2
        assert report.results() == [{}, {}]

    def test_one_fsync_per_appended_line(self, tmp_path, monkeypatch):
        import repro.pipeline.campaign as campaign_module

        syncs = []
        monkeypatch.setattr(campaign_module.os, "fsync", lambda fd: syncs.append(fd))
        store = tmp_path / "campaign.jsonl"
        runner = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        runner.run_tasks(_job_fine, _suite_tasks(["a", "b", "c"]), label="sync")
        runner.run_tasks(_job_fine, _suite_tasks(["a", "d"]), label="sync")
        lines = store.read_text().splitlines()
        assert len(lines) == 4 + 2  # four results, one summary per run
        assert len(syncs) == len(lines)


def _read_with_runner(path):
    report = CampaignRunner(CampaignConfig(store_path=path)).run_tasks(
        _job_fine, _suite_tasks(["a", "b"]), label="x")
    return report.summary.executed, report.results()


def _read_with_compaction(path):
    compact_store(path)
    return path.read_text()


#: Every reader of a store file, as a function of its path.
STORE_READERS = {
    "runner": _read_with_runner,
    "store_live_entries": store_live_entries,
    "report_from_store": lambda path: report_from_store(path).results(),
    "compact_store": _read_with_compaction,
}


class TestMalformedStoreLines:
    """A result line that parses but lacks a str ``key``/``kernel`` or a
    dict ``result`` is skipped by every reader, like a torn line."""

    MALFORMED = [
        {"type": "result", "campaign": "x"},
        {"type": "result", "campaign": "x", "kernel": "a", "key": 7, "result": {}},
        {"type": "result", "campaign": "x", "kernel": ["a"], "key": "k1", "result": {}},
        {"type": "result", "campaign": "x", "kernel": "a", "key": "k2", "result": "equivalent"},
    ]

    @pytest.mark.parametrize("reader", sorted(STORE_READERS))
    def test_reader_skips_malformed_result_lines(self, tmp_path, reader):
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        CampaignRunner(CampaignConfig(store_path=clean)).run_tasks(
            _job_fine, _suite_tasks(["a", "b"]), label="x")
        dirty.write_text(clean.read_text() + "".join(
            json.dumps(line) + "\n" for line in self.MALFORMED))
        read = STORE_READERS[reader]
        assert read(dirty) == read(clean)


class TestDeterminism:
    def test_derived_seeds_differ_per_kernel_and_base(self):
        assert derive_kernel_seed(0, "s000") != derive_kernel_seed(0, "s111")
        assert derive_kernel_seed(0, "s000") != derive_kernel_seed(1, "s000")
        assert derive_kernel_seed(7, "s000") == derive_kernel_seed(7, "s000")

    def test_workers_1_and_4_produce_identical_verdicts(self):
        config = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=2024))
        serial = CampaignRunner(CampaignConfig(workers=1)).run(SUBSET, config)
        parallel = CampaignRunner(CampaignConfig(workers=4)).run(SUBSET, config)
        assert serial.results() == parallel.results()
        assert [r.kernel for r in serial.records] == SUBSET
        assert serial.summary.verdict_counts == parallel.summary.verdict_counts

    def test_results_cover_every_kernel_with_final_verdicts(self):
        report = CampaignRunner(CampaignConfig(workers=2)).run(SUBSET)
        verdicts = {r["kernel"]: r["verdict"] for r in report.results()}
        assert set(verdicts) == set(SUBSET)
        assert all(v in ("equivalent", "not_equivalent", "plausible", "inconclusive")
                   for v in verdicts.values())
        assert report.summary.kernels == len(SUBSET)


class TestCaching:
    def test_repeated_run_is_mostly_cache_hits(self):
        runner = CampaignRunner(CampaignConfig(workers=2))
        first = runner.run(SUBSET)
        again = runner.run(SUBSET)
        assert first.summary.cache_hit_rate == 0.0
        assert again.summary.cache_hit_rate > 0.9
        assert again.summary.executed == 0
        assert again.results() == first.results()

    def test_config_change_invalidates_cache(self):
        runner = CampaignRunner(CampaignConfig(workers=1))
        runner.run(["s000"])
        report = runner.run(["s000"], LLMVectorizerConfig(fsm=FSMConfig(max_attempts=9)))
        assert report.summary.cache_hits == 0
        assert report.summary.executed == 1

    def test_persistent_cache_file_survives_runner_restarts(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CampaignRunner(CampaignConfig(workers=2, store_path=path)).run(SUBSET[:4])
        second = CampaignRunner(CampaignConfig(workers=2, store_path=path)).run(SUBSET[:4])
        assert second.summary.cache_hit_rate == 1.0
        assert second.results() == first.results()


class TestResume:
    def test_resume_from_partial_store(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        partial = CampaignRunner(CampaignConfig(workers=2, store_path=store))
        partial.run(SUBSET[:5])  # the "interrupted" first run

        resumed = CampaignRunner(CampaignConfig(workers=2, store_path=store))
        report = resumed.run(SUBSET)
        assert report.summary.resumed == 5
        assert report.summary.executed == len(SUBSET) - 5
        assert {r.kernel for r in report.records} == set(SUBSET)

        # The reference run from scratch agrees with the resumed one.
        scratch = CampaignRunner(CampaignConfig(workers=2)).run(SUBSET)
        assert scratch.results() == report.results()

    def test_store_records_results_and_summaries(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run(SUBSET[:3])
        entries = [json.loads(line) for line in store.read_text().splitlines()]
        results = [e for e in entries if e["type"] == "result"]
        summaries = [e for e in entries if e["type"] == "summary"]
        assert len(results) == 3
        assert len(summaries) == 1
        assert summaries[0]["kernels"] == 3
        assert summaries[0]["label"] == "vectorize"


class TestChecksumCampaign:
    def test_prefix_reuse_for_pass_at_k_re_estimation(self):
        runner = CampaignRunner(CampaignConfig(workers=2))
        llm = SyntheticLLM(SyntheticLLMConfig(seed=2024))
        big = run_checksum_evaluation(num_completions=8, kernels=SUBSET,
                                      llm=llm, campaign=runner)
        small = run_checksum_evaluation(num_completions=4, kernels=SUBSET,
                                        llm=llm, campaign=runner)
        assert small.campaign_summary.cache_hit_rate == 1.0
        assert small.campaign_summary.executed == 0
        assert [r.outcomes[:4] for r in big.records] == [r.outcomes for r in small.records]

    def test_larger_request_than_cached_recomputes_prefix_consistently(self):
        runner = CampaignRunner(CampaignConfig(workers=2))
        llm = SyntheticLLM(SyntheticLLMConfig(seed=2024))
        small = run_checksum_evaluation(num_completions=4, kernels=SUBSET[:4],
                                        llm=llm, campaign=runner)
        big = run_checksum_evaluation(num_completions=8, kernels=SUBSET[:4],
                                      llm=llm, campaign=runner)
        assert big.campaign_summary.executed == 4
        assert [r.outcomes for r in small.records] == [r.outcomes[:4] for r in big.records]

    def test_worker_count_does_not_change_sampled_outcomes(self):
        llm = SyntheticLLM(SyntheticLLMConfig(seed=2024))
        serial = run_checksum_evaluation(num_completions=5, kernels=SUBSET,
                                         llm=llm, campaign=CampaignConfig(workers=1))
        parallel = run_checksum_evaluation(num_completions=5, kernels=SUBSET,
                                           llm=llm, campaign=CampaignConfig(workers=4))
        assert [r.outcomes for r in serial.records] == [r.outcomes for r in parallel.records]
        assert serial.first_plausible_codes() == parallel.first_plausible_codes()


def _suite_tasks(names, config_hash="cfg"):
    return [KernelTask(kernel=name, scalar_code=f"void {name}() {{}}",
                       seed=0, config_hash=config_hash)
            for name in names]


class TestFaultTolerance:
    def test_one_failing_kernel_does_not_abort_the_campaign(self, tmp_path):
        """Regression for the abort-on-one-kernel bug: a campaign with one
        always-raising kernel completes the others, persists them, and
        reports the failure in the summary."""
        store = tmp_path / "campaign.jsonl"
        runner = CampaignRunner(CampaignConfig(workers=2, store_path=store))
        report = runner.run_tasks(_job_failing_on_s111, _suite_tasks(SUBSET[:6]),
                                  label="faulty")

        by_kernel = report.by_kernel()
        assert set(by_kernel) == set(SUBSET[:6])
        assert by_kernel["s111"]["verdict"] == "error"
        assert "ValueError" in by_kernel["s111"]["error"]
        assert "injected failure" in by_kernel["s111"]["traceback"]
        healthy = [n for n in SUBSET[:6] if n != "s111"]
        assert all(by_kernel[n]["verdict"] == "equivalent" for n in healthy)
        assert report.summary.verdict_counts == {"equivalent": 5, "error": 1}

        # Every kernel — including the failure — made it into the store.
        entries = [json.loads(line) for line in store.read_text().splitlines()]
        persisted = {e["kernel"] for e in entries if e["type"] == "result"}
        assert persisted == set(SUBSET[:6])

    def test_resumed_campaign_retries_error_records(self, tmp_path):
        """Errors are persisted for accounting, but a resumed run re-executes
        them instead of letting one crash poison every future run."""
        store = tmp_path / "campaign.jsonl"
        tasks = _suite_tasks(SUBSET[:4])
        CampaignRunner(CampaignConfig(workers=1, store_path=store)).run_tasks(
            _job_failing_on_s111, tasks, label="crashy")

        resumed = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        report = resumed.run_tasks(_job_fine, tasks, label="crashy")
        assert report.summary.resumed == 3
        assert report.summary.executed == 1
        assert report.summary.verdict_counts == {"equivalent": 4}

    def test_broken_pool_resubmits_orphaned_tasks(self, tmp_path):
        """A worker hard-killed mid-campaign (simulated segfault) breaks the
        pool; the engine rebuilds it and the resubmitted tasks complete."""
        marker = str(tmp_path / "killed-once")
        tasks = [KernelTask(kernel=name, scalar_code="", seed=0,
                            config_hash="cfg", payload=marker)
                 for name in ("a", "killer", "c", "d")]
        runner = CampaignRunner(CampaignConfig(workers=2))
        report = runner.run_tasks(_job_killing_worker, tasks, label="killy")
        assert report.summary.verdict_counts == {"equivalent": 4}

    def test_broken_pool_retries_are_bounded(self):
        """A task that breaks the pool on every attempt ends as an error
        record after the bounded rebuilds — never a lost campaign."""
        tasks = [KernelTask(kernel=name, scalar_code="", seed=0,
                            config_hash="cfg", payload=None)
                 for name in ("a", "killer")]
        runner = CampaignRunner(CampaignConfig(workers=2))
        report = runner.run_tasks(_job_killing_worker, tasks, label="killy")
        by_kernel = report.by_kernel()
        assert set(by_kernel) == {"a", "killer"}
        assert by_kernel["killer"]["verdict"] == "error"
        assert "pool" in by_kernel["killer"]["error"]
        assert by_kernel["a"]["verdict"] == "equivalent"

    def test_tasks_rerun_after_a_pool_crash_keep_their_counters(self, tmp_path):
        """Recovery re-dispatches through the batch dispatcher: re-run tasks
        start warm, ship their plan-cache counters and count as batches, so
        the summary's counters match a clean run's."""
        from repro import memo

        marker = str(tmp_path / "killed-once")
        tasks = [dataclasses.replace(task, payload={**task.payload, "marker": marker})
                 for task in CampaignRunner().vectorize_tasks(["s000", "s111"])]
        memo.clear_all()
        clean = CampaignRunner(CampaignConfig(workers=2)).run_tasks(
            vectorize_kernel_job, tasks, label="vectorize")
        memo.clear_all()
        crashed = CampaignRunner(CampaignConfig(workers=2)).run_tasks(
            _job_killing_s000_once, tasks, label="vectorize")
        assert os.path.exists(marker)
        assert crashed.results() == clean.results()
        assert clean.summary.plan_cache
        assert crashed.summary.plan_cache == clean.summary.plan_cache
        assert crashed.summary.batches > clean.summary.batches

    def test_poison_task_takes_no_collateral_damage(self):
        """One instantly-segfaulting task among many innocents: bisection
        recovery corners it alone; every other task still completes."""
        tasks = [KernelTask(kernel=name, scalar_code="", seed=0,
                            config_hash="cfg", payload=None)
                 for name in (["killer"] + [f"t{i:02d}" for i in range(24)])]
        runner = CampaignRunner(CampaignConfig(workers=4))
        report = runner.run_tasks(_job_killing_worker, tasks, label="storm")
        assert report.summary.verdict_counts == {"equivalent": 24, "error": 1}
        assert report.by_kernel()["killer"]["verdict"] == "error"

    def test_error_records_render_in_the_report(self):
        from repro.reporting import render_campaign_errors, render_campaign_report

        runner = CampaignRunner(CampaignConfig(workers=1))
        report = runner.run_tasks(_job_failing_on_s111, _suite_tasks(SUBSET[:3]),
                                  label="faulty")
        rendered = render_campaign_report(report)
        assert "error" in rendered
        assert "ValueError" in rendered
        assert "ValueError" in render_campaign_errors(report)
        # A clean report renders no error table at all.
        clean = runner.run_tasks(_job_fine, _suite_tasks(["zz1", "zz2"]), label="clean")
        assert render_campaign_errors(clean) == ""

    def test_vectorize_campaign_with_injected_error_keeps_other_kernels(self, tmp_path):
        """End to end: the flagship vectorize campaign completes around an
        injected per-kernel failure and records it as an error verdict."""
        store = tmp_path / "campaign.jsonl"
        runner = CampaignRunner(CampaignConfig(workers=2, store_path=store))
        report = runner.run_tasks(_job_failing_on_s111, _suite_tasks(SUBSET),
                                  label="vectorize")
        assert report.summary.kernels == len(SUBSET)
        assert report.summary.verdict_counts["error"] == 1
        assert report.summary.verdict_counts["equivalent"] == len(SUBSET) - 1


class TestErrorHandling:
    def test_interrupted_campaign_keeps_completed_results(self, tmp_path):
        """An abort mid-campaign (Ctrl-C) must not lose finished kernels."""
        store = tmp_path / "campaign.jsonl"

        def interrupt_on_last(task: KernelTask) -> dict:
            if task.kernel == "zz-last":
                raise KeyboardInterrupt
            return {"kernel": task.kernel, "verdict": "equivalent"}

        tasks = _suite_tasks(["a", "b", "c", "zz-last"])
        runner = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        with pytest.raises(KeyboardInterrupt):
            runner.run_tasks(interrupt_on_last, tasks, label="crashy")

        entries = [json.loads(line) for line in store.read_text().splitlines()]
        persisted = [e["kernel"] for e in entries if e["type"] == "result"]
        assert persisted == ["a", "b", "c"]

        # A resuming runner re-executes only the kernel that never finished.
        def now_fine(task: KernelTask) -> dict:
            return {"kernel": task.kernel, "verdict": "equivalent"}

        resumed = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        report = resumed.run_tasks(now_fine, tasks, label="crashy")
        assert report.summary.resumed == 3
        assert report.summary.executed == 1


class _EchoLLM(LLMClient):
    """A client the campaign cannot rebuild: it answers with the scalar code."""

    def complete(self, request):
        self._record_invocation()
        return [LLMCompletion(code=request.scalar_code)
                for _ in range(request.num_completions)]


class TestInjectedClients:
    def test_any_client_drives_one_kernel(self):
        llm = _EchoLLM()
        result = LLMVectorizer(llm=llm).vectorize(load_kernel("s000"))
        # The injected client was actually consulted, not swapped for the
        # synthetic stand-in, and the echoed scalar code verifies.
        assert llm.invocation_count == 1
        assert result.plausible
        assert result.verdict is Verdict.EQUIVALENT

    def test_suite_runs_refuse_a_client_they_cannot_rebuild(self):
        with pytest.raises(TypeError, match="_EchoLLM"):
            LLMVectorizer(llm=_EchoLLM()).vectorize_suite(["s000"])
        with pytest.raises(TypeError, match="_EchoLLM"):
            run_checksum_evaluation(num_completions=1, kernels=["s000"], llm=_EchoLLM())
        with pytest.raises(TypeError, match="_EchoLLM"):
            run_fsm_evaluation(kernels=["s000"], llm=_EchoLLM())


class TestOneResultStore:
    """Regrowth guard: the campaign store is the runner's only result map."""

    def test_config_declares_no_second_store(self):
        declared = {f.name for f in dataclasses.fields(CampaignConfig)}
        assert not declared & {"cache_path", "resume", "cache_flush_interval",
                               "warm_workers"}

    def test_runner_takes_no_cache(self):
        assert "cache" not in inspect.signature(CampaignRunner.__init__).parameters
        assert not hasattr(CampaignRunner, "_execute_pool")

    def test_no_cache_names_are_exported(self):
        import repro
        import repro.pipeline

        deleted = {"ResultCache", "CacheStats", "merge_caches"}
        for module in (repro, repro.pipeline):
            assert not deleted & set(module.__all__), module.__name__
            assert not any(hasattr(module, name) for name in deleted), module.__name__


class TestOnlySettingsCallersSet:
    """Regrowth guard: a campaign config holds only settings some caller
    sets; batch sizes, retry policies and the derivation seed are not
    settings."""

    def test_config_declares_exactly_seven_settings(self):
        declared = [f.name for f in dataclasses.fields(CampaignConfig)]
        assert declared == ["workers", "store_path", "target", "epilogue", "dtype",
                            "static_check", "shard"]

    def test_batch_setting_names_stay_deleted(self):
        import repro.pipeline
        import repro.pipeline.scheduler as scheduler

        for module in (repro.pipeline, scheduler):
            for name in ("resolve_batch_setting", "AUTO_BATCH"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_suite_tasks_takes_a_required_seed_and_no_candidates(self):
        parameters = inspect.signature(CampaignRunner.suite_tasks).parameters
        assert "candidates" not in parameters
        assert parameters["seed"].default is inspect.Parameter.empty


class TestOneTimingInstrument:
    """Regrowth guard: per-layer timing lives in ``perfbench/`` alone.

    The pipeline carries no in-tree profiler, summaries carry no stage
    timings, and a job's result travels from the job to the store unchanged.
    """

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def _is_stage_call(self, node) -> bool:
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "stage")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "stage"))

    def test_no_module_imports_a_profiler_or_brackets_a_stage(self):
        profilers = {"profile", "cProfile"}
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                where = f"{path.relative_to(self.SRC)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import):
                    if any(alias.name.split(".")[-1] in profilers for alias in node.names):
                        offenders.append(where)
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    if ((node.module or "").split(".")[-1] in profilers
                            or names & (profilers | {"stage"})):
                        offenders.append(where)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    if any(self._is_stage_call(item.context_expr) for item in node.items):
                        offenders.append(where)
        assert offenders == []
        assert not (self.SRC / "perf" / "profile.py").exists()

    def test_summary_and_config_carry_no_timing_or_second_store(self):
        summary_fields = {f.name for f in dataclasses.fields(CampaignSummary)}
        assert "stage_seconds" not in summary_fields
        config_fields = {f.name for f in dataclasses.fields(CampaignConfig)}
        assert "solve_cache_path" not in config_fields
        import repro.pipeline.campaign as campaign_module
        assert not hasattr(campaign_module, "STAGE_SECONDS_KEY")

    def test_job_results_reach_the_store_unchanged(self, tmp_path):
        from repro.pipeline.campaign import _run_job
        from repro.pipeline.scheduler import run_task_batch

        store = tmp_path / "campaign.jsonl"
        runner = CampaignRunner(CampaignConfig(workers=1, store_path=store))
        report = runner.run(["s000"])
        [task] = runner.vectorize_tasks(["s000"])
        stored = [entry["result"] for entry in map(json.loads, store.read_text().splitlines())
                  if entry.get("type") == "result"]
        assert stored == [report.records[0].result]

        direct = _run_job(vectorize_kernel_job, task, "vectorize")
        envelope = run_task_batch(vectorize_kernel_job, [task], "vectorize")
        assert set(envelope) == {"results", "plan_cache", "solver", "solve_cache"}
        for result in (direct, envelope["results"][0]):
            assert json.dumps(result, sort_keys=True) == json.dumps(stored[0], sort_keys=True)

    def test_deleted_shims_stay_deleted(self):
        import importlib

        import repro.intrinsics
        import repro.intrinsics.lanemath as lanemath
        import repro.smt.equiv as equiv
        from repro.pipeline import EquivalencePipeline
        from repro.smt import solvecache

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.intrinsics.avx2")
        legacy = {"LANE_BITS", "LANE_MASK", "SIGN_BIT", "wrap32", "to_unsigned32"}
        for module in (lanemath, repro.intrinsics):
            assert not any(hasattr(module, name) for name in legacy), module.__name__
        assert not legacy & set(repro.intrinsics.__all__)
        assert not hasattr(equiv, "cached_normalize")
        assert not hasattr(solvecache, "save") and not hasattr(solvecache, "load")
        parameters = inspect.signature(EquivalencePipeline).parameters
        assert not {"checksum_seed", "checksum_trip_counts"} & set(parameters)
        # One lane evaluator: no second copy of the lane arithmetic.
        from repro.intrinsics import ALL_LANE_TYPES, LaneType, VecValue, registry_for
        from repro.targets import ALL_TARGETS

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.intrinsics.purelanes")
        init_fields = [f.name for f in dataclasses.fields(LaneType) if f.init]
        assert init_fields == ["name", "bits", "c_name"]
        for target in ALL_TARGETS:
            for dtype in ALL_LANE_TYPES:
                for spec in registry_for(target, dtype).values():
                    if spec.kind in ("pure_binary", "pure_unary"):
                        assert spec.fn is None, spec.name
        assert not hasattr(VecValue, "map_binary")
        assert not hasattr(VecValue, "map_unary")
