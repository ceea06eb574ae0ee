"""The dtype axis end-to-end: loader retargeting, per-dtype campaigns,
salted fingerprints and the truncation canary.

The paper's universe is int32; this suite proves the int16/int64 lanes
added on top behave identically *per kernel* while never sharing a cache
entry, a solve-cache record or a fingerprint with another width.
"""

import json

import pytest

from repro.alive.verifier import AliveVerifier
from repro.pipeline.cache import config_fingerprint
from repro.pipeline.campaign import CampaignConfig, CampaignRunner, CampaignSummary
from repro.runspec import RunSpec
from repro.smt import solvecache
from repro.tsvc import load_kernel, load_suite
from repro.tsvc.loader import dtype_kernel_name, retarget_spec, split_kernel_name
from repro.tsvc.registry import get_kernel
from repro.vectorizer import vectorize_kernel
from repro.verdict import Verdict

#: Kernels that verify equivalent at int32 on every target — the mini
#: campaign asserts the same verdicts at int16/int64.
MINI_SUITE = ["s000", "s1111", "s113", "s121", "s1251"]


@pytest.fixture(autouse=True)
def _clean_solve_cache():
    solvecache.clear_caches()
    yield
    solvecache.clear_caches()


# ---------------------------------------------------------------------------
# loader retargeting
# ---------------------------------------------------------------------------


class TestLoaderRetarget:
    def test_int32_load_is_unchanged(self):
        assert load_kernel("s000").spec == get_kernel("s000")
        assert load_kernel("s000", "int32").spec == get_kernel("s000")

    def test_retarget_respells_and_renames(self):
        spec = retarget_spec(get_kernel("s000"), "int16")
        assert spec.name == "s000_i16"
        assert "int16_t" in spec.source
        assert "s000_i16" in spec.source
        # No bare `int` token survives; loop counters respell too.
        import re
        assert not re.search(r"\bint\b", spec.source)

    def test_suffixed_names_resolve(self):
        direct = load_kernel("s000", "int64")
        via_name = load_kernel("s000_i64")
        assert direct.spec == via_name.spec
        assert direct.name == "s000_i64"

    def test_every_spelling_of_one_kernel_loads_once(self):
        # Campaign jobs load "s000" while load_suite asks for
        # ("s000", "int32"); both must share one parse and analysis.
        assert load_kernel("s000") is load_kernel("s000", "int32")
        assert load_kernel("s000_i16") is load_kernel("s000", dtype="int16")

    def test_kernel_dtype_of_retargeted_function(self):
        from repro.cfront import ast_nodes as ast

        assert ast.kernel_dtype(load_kernel("s000", "int64").function).name == "int64"
        assert ast.kernel_dtype(load_kernel("s000", "int16").function).name == "int16"
        assert ast.kernel_dtype(load_kernel("s000").function).name == "int32"

    def test_name_helpers_round_trip(self):
        assert dtype_kernel_name("s000", "int16") == "s000_i16"
        assert dtype_kernel_name("s000", "int32") == "s000"
        assert split_kernel_name("s000_i64") == ("s000", "int64")
        assert split_kernel_name("s000") == ("s000", "int32")

    def test_suite_load_is_dtype_parametric(self):
        kernels = load_suite(MINI_SUITE, dtype="int64")
        assert [k.name for k in kernels] == [n + "_i64" for n in MINI_SUITE]


# ---------------------------------------------------------------------------
# fingerprints and cache keys
# ---------------------------------------------------------------------------


class TestDtypeFingerprints:
    def test_int32_salt_is_identity(self):
        """Spelling out the default dtype, or an alias of it, keys the same
        entries as leaving it unset."""
        assert (config_fingerprint(RunSpec())
                == config_fingerprint(RunSpec(dtype="int32"))
                == config_fingerprint(RunSpec(dtype="int32_t")))

    def test_non_default_dtypes_salt_distinctly(self):
        prints = {config_fingerprint(RunSpec(dtype=d))
                  for d in ("int32", "int16", "int64")}
        assert len(prints) == 3

    def test_campaign_tasks_never_collide_across_dtypes(self):
        keys = {}
        for dtype in ("int32", "int16", "int64"):
            runner = CampaignRunner(CampaignConfig(workers=1, dtype=dtype))
            (task,) = runner.vectorize_tasks(["s000"])
            keys[dtype] = task.cache_key("vectorize")
        assert len(set(keys.values())) == 3


# ---------------------------------------------------------------------------
# per-dtype campaigns
# ---------------------------------------------------------------------------


class TestDtypeCampaigns:
    @pytest.mark.parametrize("dtype", ["int16", "int64"])
    @pytest.mark.parametrize("target", ["avx2", "sve256"])
    def test_mini_campaign_reaches_int32_verdicts(self, dtype, target):
        runner = CampaignRunner(CampaignConfig(
            workers=1, dtype=dtype, target=target))
        report = runner.run(MINI_SUITE)
        summary = report.summary
        assert summary.dtype == dtype
        assert summary.verdict_counts == {"equivalent": len(MINI_SUITE)}
        assert summary.as_dict()["dtype"] == dtype
        suffix = "_i16" if dtype == "int16" else "_i64"
        assert [r.kernel for r in report.records] \
            == [n + suffix for n in MINI_SUITE]
        # The emitted code really is the sized universe, not respelled int32.
        for record in report.records:
            code = record.result["final_code"]
            assert code and ("int16_t" in code if dtype == "int16"
                             else "int64_t" in code)

    def test_zero_cross_dtype_solve_cache_hits(self):
        """The same term pair solved at two modeled widths shares one
        process-local solve cache yet never hits across: every key is
        salted with the model width, so the second width is a miss."""
        from repro.smt.equiv import EquivalenceChecker
        from repro.smt.terms import TermKind, bv_const, bv_var, mk

        a, b = bv_var("a"), bv_var("b")
        left = mk(TermKind.XOR, mk(TermKind.ADD, a, b), bv_const(3))
        right = mk(TermKind.XOR, mk(TermKind.ADD, b, a), bv_const(3))
        first = EquivalenceChecker(model_bits=16)._sat_check_batch([(left, right)])
        assert solvecache.stats.cache_hits == 0
        assert solvecache.stats.cache_misses == 1
        second = EquivalenceChecker(model_bits=64)._sat_check_batch([(left, right)])
        assert solvecache.stats.cache_hits == 0
        assert solvecache.stats.cache_misses == 2
        assert first.outcome is second.outcome
        keys = {key for key, _ in solvecache.export_entries()}
        assert {key.split("/")[1] for key in keys} == {"m16", "m64"}
        # Re-solving at a width already seen IS a hit — the salt separates
        # widths, it does not disable caching.
        EquivalenceChecker(model_bits=16)._sat_check_batch([(left, right)])
        assert solvecache.stats.cache_hits == 1

    def test_campaigns_store_only_width_salted_solve_keys(self):
        """Whatever solve-cache traffic a dtype campaign generates, its
        keys carry that dtype's model width — cross-width hits cannot
        exist because cross-width keys cannot collide."""
        CampaignRunner(CampaignConfig(workers=1, dtype="int16")).run(MINI_SUITE)
        keys16 = {key for key, _ in solvecache.export_entries()}
        assert all(key.split("/")[1] == "m16" for key in keys16)
        CampaignRunner(CampaignConfig(workers=1, dtype="int64")).run(MINI_SUITE)
        keys64 = {key for key, _ in solvecache.export_entries()} - keys16
        assert all(key.split("/")[1] == "m64" for key in keys64)
        assert not keys16 & keys64

    def test_summary_dtype_defaults_to_int32(self):
        summary = CampaignSummary(label="x", kernels=0, executed=0,
                                  cache_hits=0, cache_misses=0, resumed=0,
                                  wall_clock_seconds=0.0, workers=1)
        assert summary.dtype == "int32"
        assert summary.as_dict()["dtype"] == "int32"


# ---------------------------------------------------------------------------
# the truncation canary
# ---------------------------------------------------------------------------


class TestInt64TruncationCanary:
    """A TSVC-style int64 kernel whose verdict flips if any layer models
    64-bit lanes at 32 bits."""

    def _scalar_and_candidate(self):
        scalar = load_kernel("s000", "int64")
        result = vectorize_kernel(scalar.function, "avx2")
        assert result is not None
        return scalar.source, result.source

    def test_correct_candidate_verifies_at_64_bits(self):
        scalar, candidate = self._scalar_and_candidate()
        report = AliveVerifier().check_with_alive_unroll(scalar, candidate)
        assert report.outcome is Verdict.EQUIVALENT

    def test_high_bit_bug_is_caught(self):
        """Add 2^40 to every lane: invisible at 32 bits (2^40 mod 2^32 with
        the top 32 bits dropped is 0), a hard mismatch at 64.  If any layer
        truncated, this candidate would verify — the canary dies."""
        scalar, candidate = self._scalar_and_candidate()
        assert "_mm256_set1_epi64x(1)" in candidate
        buggy = candidate.replace(
            "_mm256_set1_epi64x(1)",
            "_mm256_add_epi64(_mm256_set1_epi64x(1), "
            "_mm256_slli_epi64(_mm256_set1_epi64x(1), 40))")
        report = AliveVerifier().check_with_alive_unroll(scalar, buggy)
        assert report.outcome is Verdict.NOT_EQUIVALENT


class TestLaneTypeDescriptor:
    """The wrap constants are precomputed, but a LaneType is still four
    fields of data: frozen, equal and hashed by those fields, picklable."""

    def test_precomputed_constants(self):
        from repro.lanetypes import ALL_LANE_TYPES
        for lane in ALL_LANE_TYPES:
            assert lane.mask == (1 << lane.bits) - 1
            assert lane.sign_bit == 1 << (lane.bits - 1)
            assert lane.wrap(lane.sign_bit) == -lane.sign_bit
            assert lane.wrap(-lane.sign_bit - 1) == lane.sign_bit - 1

    def test_frozen_equal_hashable_and_picklable(self):
        import dataclasses
        import pickle
        from repro.lanetypes import INT32, LaneType

        twin = LaneType(name="int32", bits=32, c_name="int", np_name="int32")
        assert twin == INT32 and hash(twin) == hash(INT32)
        assert repr(twin) == ("LaneType(name='int32', bits=32, c_name='int', "
                              "np_name='int32')")
        with pytest.raises(dataclasses.FrozenInstanceError):
            INT32.bits = 16
        copy = pickle.loads(pickle.dumps(INT32))
        assert copy == INT32 and copy.wrap(2**31) == -2**31
        narrowed = dataclasses.replace(INT32, name="int16", bits=16)
        assert narrowed.mask == 0xFFFF and narrowed.wrap(0x8000) == -0x8000


# ---------------------------------------------------------------------------
# benchmark JSON stamping
# ---------------------------------------------------------------------------


class TestBenchJsonDtype:
    def _summary(self, dtype: str, kernels: int = 5) -> CampaignSummary:
        return CampaignSummary(
            label="vectorize", kernels=kernels, executed=kernels,
            cache_hits=0, cache_misses=kernels, resumed=0,
            wall_clock_seconds=2.0, workers=1, target="avx2", dtype=dtype,
            verdict_counts={"equivalent": kernels})

    def test_new_entries_are_stamped_and_old_ones_survive(self, tmp_path):
        from repro.reporting.campaign import write_bench_json

        path = tmp_path / "BENCH_campaign.json"
        legacy = {"label": "vectorize", "kernels": 5, "executed": 5,
                  "workers": 1, "target": "avx2", "wall_clock_seconds": 4.0,
                  "effective_kernels_per_second": 1.25}
        path.write_text(json.dumps({"campaigns": [legacy]}), encoding="utf-8")
        write_bench_json([self._summary("int64")], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries = payload["campaigns"]
        assert len(entries) == 2
        assert "dtype" not in entries[0]  # legacy entry kept verbatim
        assert entries[1]["dtype"] == "int64"
        # The scaling index separates widths; legacy rows index as int32.
        scaling = {(e["target"], e["dtype"]): e for e in payload["scaling"]}
        assert ("avx2", "int32") in scaling
        assert ("avx2", "int64") in scaling
        assert scaling[("avx2", "int64")]["effective_kernels_per_second"] == 2.5

    def test_same_rate_different_dtype_indexes_separately(self, tmp_path):
        from repro.reporting.campaign import write_bench_json

        path = tmp_path / "bench.json"
        write_bench_json([self._summary("int16"), self._summary("int64")], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        dtypes = {e["dtype"] for e in payload["scaling"]}
        assert dtypes == {"int16", "int64"}
