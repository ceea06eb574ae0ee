"""Tests for campaign sharding: deterministic partitions, store merging, and
bit-identical reconstruction of a sharded run."""

import json

import pytest

from repro.pipeline import (
    CampaignConfig,
    CampaignRunner,
    ShardSpec,
    merge_stores,
    report_from_store,
    shard_of,
)
from repro.tsvc import all_kernel_names

SUBSET = ["s000", "s111", "s112", "s113", "s1119", "s121",
          "s122", "s212", "s271", "s321", "vsumr", "vif"]


class TestShardSpec:
    def test_parse_roundtrip(self):
        assert ShardSpec.parse("1/3") == ShardSpec(1, 3)
        assert ShardSpec.parse(ShardSpec(0, 2)) == ShardSpec(0, 2)
        assert str(ShardSpec(2, 4)) == "2/4"

    @pytest.mark.parametrize("bad", ["", "2", "a/b", "1/0", "3/2", "-1/2"])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            ShardSpec.parse(bad)

    def test_shard_of_is_stable_and_in_range(self):
        for name in SUBSET:
            index = shard_of(name, 3)
            assert 0 <= index < 3
            assert shard_of(name, 3) == index  # pure function of the name


class TestPartitionDeterminism:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_shards_partition_the_full_suite_exactly(self, count):
        """The union of the shard task lists is the whole suite, no overlap."""
        names = all_kernel_names()
        parts = [[n for n in names if ShardSpec(i, count).contains(n)]
                 for i in range(count)]
        assert sum(len(p) for p in parts) == len(names)
        assert sorted(n for part in parts for n in part) == sorted(names)
        # Every shard is non-trivial on a 149-kernel suite.
        assert all(parts)

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_suite_tasks_respect_the_config_shard(self, count):
        whole = CampaignRunner(CampaignConfig(workers=1)).suite_tasks(
            SUBSET, payload=None, config_hash="cfg", seed=0)
        covered = []
        for i in range(count):
            runner = CampaignRunner(CampaignConfig(workers=1, shard=f"{i}/{count}"))
            report = runner.run_tasks(_echo_job, list(whole), label="echo")
            covered.extend(r.kernel for r in report.records)
            assert report.summary.shard == f"{i}/{count}"
        assert sorted(covered) == sorted(t.kernel for t in whole)


def _echo_job(task) -> dict:
    return {"kernel": task.kernel, "verdict": "equivalent"}


class TestMergedCampaign:
    def test_two_shard_vectorize_campaign_merges_bit_identical(self, tmp_path):
        """The acceptance shape: run shard 0/2 and 1/2 on disjoint stores,
        merge, and get verdicts + code SHAs bit-identical to one run."""
        single = CampaignRunner(CampaignConfig(workers=2)).run(SUBSET)

        stores = []
        for i in range(2):
            store = tmp_path / f"shard{i}.jsonl"
            stores.append(store)
            report = CampaignRunner(CampaignConfig(
                workers=2, shard=ShardSpec(i, 2), store_path=store,
            )).run(SUBSET)
            assert report.summary.shard == f"{i}/2"
            assert 0 < report.summary.kernels < len(SUBSET)

        merged = report_from_store(merge_stores(stores, tmp_path / "merged.jsonl"))
        assert set(merged.by_kernel()) == set(single.by_kernel())
        for kernel, result in single.by_kernel().items():
            assert merged.by_kernel()[kernel]["verdict"] == result["verdict"]
            assert merged.by_kernel()[kernel]["final_code_sha"] == result["final_code_sha"]
        assert merged.summary.verdict_counts == single.summary.verdict_counts
        assert merged.summary.kernels == len(SUBSET)
        assert merged.summary.executed == len(SUBSET)
        assert merged.summary.shard is None

    def test_multi_target_sharded_stores_merge_per_target(self, tmp_path):
        """Two targets through two shards: the merged store reconstructs each
        target's report bit-identical to its single-machine run."""
        targets = ["avx2", "sse4"]
        subset = SUBSET[:6]
        singles = {t: CampaignRunner(CampaignConfig(workers=2, target=t)).run(subset)
                   for t in targets}

        stores = []
        for i in range(2):
            store = tmp_path / f"shard{i}.jsonl"
            stores.append(store)
            for target in targets:
                CampaignRunner(CampaignConfig(workers=2, shard=f"{i}/2", target=target,
                                              store_path=store)).run(subset)

        merged_path = merge_stores(stores, tmp_path / "merged.jsonl")
        for target in targets:
            merged = report_from_store(merged_path, target=target)
            single = singles[target]
            assert set(merged.by_kernel()) == set(single.by_kernel())
            for kernel, result in single.by_kernel().items():
                assert merged.by_kernel()[kernel]["verdict"] == result["verdict"]
                assert merged.by_kernel()[kernel]["final_code_sha"] == result["final_code_sha"]
            assert merged.summary.target == target
            assert merged.summary.verdict_counts == single.summary.verdict_counts

    def test_merged_records_come_back_in_suite_order(self, tmp_path):
        stores = []
        for i in range(2):
            store = tmp_path / f"shard{i}.jsonl"
            stores.append(store)
            CampaignRunner(CampaignConfig(workers=1, shard=f"{i}/2",
                                          store_path=store)).run(SUBSET)
        merged = report_from_store(merge_stores(stores, tmp_path / "merged.jsonl"))
        canonical = [name for name in all_kernel_names() if name in SUBSET]
        assert [r.kernel for r in merged.records] == canonical

    def test_merged_report_renders(self, tmp_path):
        from repro.reporting import render_campaign_report, render_campaign_summaries

        stores, summaries = [], []
        for i in range(2):
            store = tmp_path / f"shard{i}.jsonl"
            stores.append(store)
            report = CampaignRunner(CampaignConfig(workers=1, shard=f"{i}/2",
                                                   store_path=store)).run(SUBSET[:4])
            summaries.append(report.summary)
        merged = report_from_store(merge_stores(stores, tmp_path / "merged.jsonl"))
        rendered = render_campaign_report(merged, title="Merged campaign results")
        assert "Merged campaign results" in rendered
        assert all(kernel in rendered for kernel in SUBSET[:4])
        per_shard = render_campaign_summaries(summaries)
        assert "0/2" in per_shard and "1/2" in per_shard


class TestStoreMerging:
    def test_merge_deduplicates_overlapping_results(self, tmp_path):
        entry = {"type": "result", "campaign": "c", "kernel": "s000",
                 "key": "k1", "result": {"kernel": "s000", "verdict": "equivalent"}}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps(entry) + "\n")
        b.write_text(json.dumps(entry) + "\n")
        merged = merge_stores([a, b], tmp_path / "m.jsonl")
        assert len(merged.read_text().splitlines()) == 1

    def test_merge_refuses_conflicting_results(self, tmp_path):
        base = {"type": "result", "campaign": "c", "kernel": "s000", "key": "k1"}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps({**base, "result": {"verdict": "equivalent"}}) + "\n")
        b.write_text(json.dumps({**base, "result": {"verdict": "not_equivalent"}}) + "\n")
        with pytest.raises(ValueError, match="disagree"):
            merge_stores([a, b], tmp_path / "m.jsonl")

    def test_error_record_loses_to_retried_success_across_stores(self, tmp_path):
        """A transient failure in one shard store and its retried success in
        another must merge to the success, not refuse as a conflict."""
        base = {"type": "result", "campaign": "c", "kernel": "s000", "key": "k1"}
        failed = tmp_path / "failed.jsonl"
        retried = tmp_path / "retried.jsonl"
        failed.write_text(json.dumps(
            {**base, "result": {"kernel": "s000", "verdict": "error",
                                "error": "ValueError: transient"}}) + "\n")
        retried.write_text(json.dumps(
            {**base, "result": {"kernel": "s000", "verdict": "equivalent"}}) + "\n")
        for stores in ([failed, retried], [retried, failed]):  # order-independent
            merged = merge_stores(stores, tmp_path / "m.jsonl")
            entry = json.loads(merged.read_text().splitlines()[0])
            assert entry["result"]["verdict"] == "equivalent"

    def test_resumed_shard_store_does_not_double_count_accounting(self, tmp_path):
        """A shard that was interrupted and resumed holds several summaries;
        the merged summary must reflect each shard's final pass only."""
        store = tmp_path / "shard0.jsonl"
        config = dict(workers=1, shard="0/2", store_path=store)
        first = CampaignRunner(CampaignConfig(**config)).run(SUBSET)
        CampaignRunner(CampaignConfig(**config)).run(SUBSET)  # the resumed pass

        merged = report_from_store(store)
        assert merged.summary.kernels == first.summary.kernels
        # The final pass resumed everything and executed nothing fresh.
        assert merged.summary.executed == 0
        assert merged.summary.resumed == first.summary.kernels
        assert merged.summary.resumed + merged.summary.executed <= merged.summary.kernels

    def test_later_entries_supersede_within_one_store(self, tmp_path):
        """A store that recorded an error and then its retried success keeps
        the success — replaying the append order, like the store itself."""
        base = {"type": "result", "campaign": "c", "kernel": "s000", "key": "k1"}
        a = tmp_path / "a.jsonl"
        a.write_text(
            json.dumps({**base, "result": {"verdict": "error", "error": "boom"}}) + "\n"
            + json.dumps({**base, "result": {"verdict": "equivalent"}}) + "\n")
        merged = merge_stores([a], tmp_path / "m.jsonl")
        entry = json.loads(merged.read_text().splitlines()[0])
        assert entry["result"]["verdict"] == "equivalent"

    def test_report_from_store_requires_label_when_ambiguous(self, tmp_path):
        store = tmp_path / "s.jsonl"
        store.write_text(
            json.dumps({"type": "result", "campaign": "one", "kernel": "a",
                        "key": "k1", "result": {"kernel": "a", "verdict": "equivalent"}}) + "\n"
            + json.dumps({"type": "result", "campaign": "two", "kernel": "a",
                          "key": "k2", "result": {"kernel": "a", "verdict": "error"}}) + "\n")
        with pytest.raises(ValueError, match="label"):
            report_from_store(store)
        report = report_from_store(store, label="one")
        assert report.by_kernel()["a"]["verdict"] == "equivalent"

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_stores([tmp_path / "nope.jsonl"], tmp_path / "m.jsonl")

    def test_summary_only_store_merges_without_records(self, tmp_path):
        """A shard that resumed a fully-cached run appends only a summary;
        merging it must carry the summary over and produce no records."""
        summary = {"type": "summary", "label": "vectorize", "kernels": 3,
                   "executed": 0, "resumed": 3, "cache_hits": 3,
                   "cache_misses": 0, "wall_clock_seconds": 0.1, "workers": 1,
                   "target": "avx2", "verdict_counts": {}}
        only_summary = tmp_path / "summary_only.jsonl"
        only_summary.write_text(json.dumps(summary) + "\n")
        merged = merge_stores([only_summary], tmp_path / "m.jsonl")
        entries = [json.loads(line) for line in merged.read_text().splitlines()]
        assert [e["type"] for e in entries] == ["summary"]
        report = report_from_store(merged, label="vectorize")
        assert report.records == []
        assert report.summary.kernels == 0
        assert report.summary.resumed == 3

    def test_two_distinct_error_records_keep_the_first(self, tmp_path):
        """Documented merge semantics, previously untested: when both stores
        hold (different) error records for one key, the first seen wins and
        the merge does not refuse."""
        base = {"type": "result", "campaign": "c", "kernel": "s000", "key": "k1"}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps(
            {**base, "result": {"kernel": "s000", "verdict": "error",
                                "error": "ValueError: first"}}) + "\n")
        b.write_text(json.dumps(
            {**base, "result": {"kernel": "s000", "verdict": "error",
                                "error": "OSError: second"}}) + "\n")
        merged = merge_stores([a, b], tmp_path / "m.jsonl")
        entry = json.loads(merged.read_text().splitlines()[0])
        assert entry["result"]["error"] == "ValueError: first"

    def test_unlabeled_records_do_not_fabricate_a_label(self, tmp_path):
        """A record with no campaign field must stay unlabeled: stringifying
        it minted a bogus "None" label that inference then "succeeded" with."""
        store = tmp_path / "s.jsonl"
        unlabeled = {"type": "result", "kernel": "a", "key": "k0",
                     "result": {"kernel": "a", "verdict": "equivalent"}}
        store.write_text(json.dumps(unlabeled) + "\n")
        with pytest.raises(ValueError, match="no labeled campaign records"):
            report_from_store(store)
        # A store mixing one real label with stray unlabeled records infers
        # the real label and excludes the unlabeled ones.
        labeled = {"type": "result", "campaign": "real", "kernel": "b",
                   "key": "k1", "result": {"kernel": "b", "verdict": "equivalent"}}
        store.write_text(json.dumps(unlabeled) + "\n" + json.dumps(labeled) + "\n")
        report = report_from_store(store)
        assert report.label == "real"
        assert set(report.by_kernel()) == {"b"}

    def test_a_non_string_label_is_no_label(self, tmp_path):
        """Inference and selection read a label by one rule: only a string
        labels a record.  Inferring ``str(7)`` and then selecting ``7 ==
        '7'`` reported label '7' with no records."""
        store = tmp_path / "s.jsonl"
        numbered = {"type": "result", "campaign": 7, "kernel": "a", "key": "k0",
                    "result": {"kernel": "a", "verdict": "equivalent"}}
        store.write_text(json.dumps(numbered) + "\n")
        with pytest.raises(ValueError, match="no labeled campaign records"):
            report_from_store(store)
        assert report_from_store(store, label="7").records == []
        labeled = {"type": "result", "campaign": "real", "kernel": "b",
                   "key": "k1", "result": {"kernel": "b", "verdict": "equivalent"}}
        store.write_text(json.dumps(numbered) + "\n" + json.dumps(labeled) + "\n")
        report = report_from_store(store)
        assert report.label == "real"
        assert set(report.by_kernel()) == {"b"}

    def test_summary_target_fallback_uses_the_default_resolution_rule(self, tmp_path):
        """A store whose summaries carry no target falls back to the
        pipeline default target, not to a hardcoded ISA name."""
        from repro.targets import DEFAULT_TARGET

        store = tmp_path / "s.jsonl"
        store.write_text(json.dumps(
            {"type": "result", "campaign": "c", "kernel": "a", "key": "k1",
             "result": {"kernel": "a", "verdict": "equivalent"}}) + "\n")
        report = report_from_store(store)
        assert report.summary.target == DEFAULT_TARGET.name


class TestShardedResume:
    def test_shard_resumes_from_its_own_store(self, tmp_path):
        store = tmp_path / "shard0.jsonl"
        config = CampaignConfig(workers=2, shard="0/2", store_path=store)
        first = CampaignRunner(config).run(SUBSET)
        again = CampaignRunner(CampaignConfig(workers=2, shard="0/2",
                                              store_path=store)).run(SUBSET)
        assert again.summary.resumed == first.summary.kernels
        assert again.summary.executed == 0
        assert again.results() == first.results()
