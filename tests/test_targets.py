"""Tests for the pluggable TargetISA layer: descriptions, cost models,
target-aware prompts/LLM, and multi-target campaigns over one cache."""

import pytest

from repro.llm.client import CompletionRequest
from repro.llm.prompts import build_repair_prompt, build_vectorization_prompt
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.perf.costmodel import DEFAULT_COST_MODEL, cost_model_for
from repro.perf.simulator import measure_kernel
from repro.pipeline.cache import config_fingerprint
from repro.pipeline.campaign import CampaignConfig, CampaignRunner
from repro.runspec import RunSpec
from repro.targets import (
    ALL_TARGETS,
    AVX2,
    AVX512,
    SSE4,
    UnsupportedTargetOperation,
    detect_target,
    get_target,
    target_names,
)
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel


class TestTargetDescriptions:
    def test_registered_targets_narrow_to_wide(self):
        assert target_names() == ["sse4", "neon", "sve128", "avx2", "sve256", "avx512"]
        assert [t.lanes for t in ALL_TARGETS] == [4, 4, 4, 8, 8, 16]
        assert [t.register_bits for t in ALL_TARGETS] == [128, 128, 128, 256, 256, 512]

    def test_get_target_resolves_aliases_and_instances(self):
        assert get_target(None) is AVX2
        assert get_target("AVX-512") is AVX512
        assert get_target("sse4.1") is SSE4
        assert get_target(SSE4) is SSE4

    def test_unknown_target_is_an_error(self):
        with pytest.raises(ValueError, match="unknown target"):
            get_target("rvv")

    def test_unsupported_op_raises_with_context(self):
        with pytest.raises(UnsupportedTargetOperation, match="AVX-512"):
            AVX512.intrinsic("hadd")

    def test_intrinsic_naming_is_regular(self):
        assert SSE4.intrinsic("add") == "_mm_add_epi32"
        assert AVX2.intrinsic("and") == "_mm256_and_si256"
        assert AVX512.intrinsic("loadu") == "_mm512_loadu_si512"

    def test_vector_ctypes(self):
        assert str(SSE4.vector_ctype) == "__m128i"
        assert str(AVX512.vector_pointer_ctype) == "__m512i*"
        assert AVX2.vector_ctype.vector_lanes == 8


class TestDetectTarget:
    def test_detects_by_prefix_widest_first(self):
        assert detect_target("x = _mm512_add_epi32(a, b);") is AVX512
        assert detect_target("x = _mm256_add_epi32(a, b);") is AVX2
        assert detect_target("x = _mm_add_epi32(a, b);") is SSE4

    def test_plain_scalar_code_falls_back_to_default(self):
        assert detect_target("for (i = 0; i < n; i++) a[i] = b[i];") is AVX2
        assert detect_target("int x;", default="sse4") is SSE4

    def test_generated_code_round_trips_through_detection(self):
        for isa in ALL_TARGETS:
            result = vectorize_kernel(load_kernel("s000").function, isa)
            assert detect_target(result.source) is isa


class TestPerTargetCostModels:
    def test_avx2_model_is_the_default_model(self):
        assert cost_model_for("avx2") is DEFAULT_COST_MODEL
        assert cost_model_for(None) is DEFAULT_COST_MODEL

    def test_overrides_apply_per_target(self):
        sse4 = cost_model_for("sse4")
        avx512 = cost_model_for("avx512")
        base = DEFAULT_COST_MODEL
        assert sse4.vector_costs["vec_load"] < base.vector_costs["vec_load"]
        assert avx512.vector_costs["vec_load"] > base.vector_costs["vec_load"]
        # Non-overridden categories inherit the base figures.
        assert sse4.vector_costs["vec_pure_unary"] == base.vector_costs["vec_pure_unary"]

    def test_cost_tables_are_typed_floats(self):
        for name in target_names():
            model = cost_model_for(name)
            for table in (model.scalar_costs, model.vector_costs):
                assert all(isinstance(k, str) and isinstance(v, float)
                           for k, v in table.items())

    def test_simulated_speedup_grows_with_width(self):
        """More lanes per trip -> fewer vector iterations -> fewer cycles."""
        kernel = load_kernel("s000")
        cycles = {}
        for isa in ALL_TARGETS:
            candidate = vectorize_kernel(kernel.function, isa)
            perf = measure_kernel(kernel.name, kernel.source, candidate.source,
                                  n=256, target=isa)
            cycles[isa.name] = perf.llm_cycles
            assert perf.scalar_cycles > perf.llm_cycles
        assert cycles["avx512"] < cycles["avx2"] < cycles["sse4"]


class TestTargetAwareLLM:
    def test_prompts_name_the_target_and_lane_count(self):
        avx512_prompt = build_vectorization_prompt("void f(int* a, int n) {}",
                                                   target="avx512")
        assert "AVX-512" in avx512_prompt and "sixteen 32-bit integers" in avx512_prompt
        default_prompt = build_vectorization_prompt("void f(int* a, int n) {}")
        assert "AVX2" in default_prompt and "eight 32-bit integers" in default_prompt
        repair = build_repair_prompt("s", "p", "feedback", target="sse4")
        assert "SSE4" in repair

    @pytest.mark.parametrize("target", [t.name for t in ALL_TARGETS])
    def test_synthetic_llm_completes_with_target_intrinsics(self, target):
        isa = get_target(target)
        kernel = load_kernel("s000")
        llm = SyntheticLLM(SyntheticLLMConfig(seed=5))
        request = CompletionRequest(
            prompt=build_vectorization_prompt(kernel.source, target=isa),
            kernel_name=kernel.name, scalar_code=kernel.source,
            num_completions=4, spec=RunSpec(target=target),
        )
        completions = llm.complete(request)

        def load_spelling(t):
            return t.intrinsic(t.plain_load_op)

        vectorized = [c for c in completions if load_spelling(isa) in c.code]
        assert vectorized, "expected at least one intrinsic-bearing completion"
        foreign_loads = {load_spelling(t) for t in ALL_TARGETS} - {load_spelling(isa)}
        for completion in vectorized:
            assert not any(name in completion.code for name in foreign_loads)


class TestMixedWidthCandidates:
    """A candidate mixing register widths must be rejected cleanly by both
    execution layers (not silently truncated, not a raw IndexError)."""

    SOURCE = """
void kernel(int * a, int * out, int n)
{
    __m128i v = _mm_loadu_si128((__m128i*)&a[0]);
    _mm256_storeu_si256((__m256i*)&out[0], v);
}
"""

    def test_interpreter_rejects_with_a_diagnostic(self):
        from repro.cfront.cparser import parse_function
        from repro.errors import InterpreterError
        from repro.interp.interpreter import run_function

        func = parse_function(self.SOURCE)
        with pytest.raises(InterpreterError, match="4 lanes, expected 8"):
            run_function(func, {"a": [1] * 8, "out": [0] * 8}, {"n": 8})

    def test_symexec_rejects_with_a_diagnostic(self):
        from repro.alive.symexec import SymbolicExecutionError, execute_symbolically
        from repro.cfront.cparser import parse_function

        func = parse_function(self.SOURCE)
        with pytest.raises(SymbolicExecutionError, match="4 lanes, expected 8"):
            execute_symbolically(func, {"a": 8, "out": 8}, {"n": 8})

    def test_pipeline_reaches_a_verdict_instead_of_crashing(self):
        from repro.pipeline.equivalence import EquivalencePipeline

        scalar = ("void kernel(int * a, int * out, int n) "
                  "{ int i; for (i = 0; i < n; i++) out[i] = a[i]; }")
        report = EquivalencePipeline().check_equivalence(scalar, self.SOURCE)
        assert report.verdict.value == "not_equivalent"

    def test_mixed_width_pure_ops_and_wrong_arity_setr_cannot_compile(self):
        from repro.errors import CompileError
        from repro.intrinsics import VecValue, apply_pure_intrinsic

        with pytest.raises(CompileError, match="4 lanes, expected 8"):
            apply_pure_intrinsic("_mm256_add_epi32",
                                 [VecValue.zero(8), VecValue.zero(4)])
        with pytest.raises(CompileError, match="4 lanes, expected 8"):
            apply_pure_intrinsic("_mm256_blendv_epi8",
                                 [VecValue.zero(8), VecValue.zero(8), VecValue.zero(4)])
        with pytest.raises(CompileError, match="takes 8 lane arguments"):
            apply_pure_intrinsic("_mm256_setr_epi32", [1, 2, 3, 4])

    def test_legacy_cast128_extract_reduction_tail_still_executes(self):
        """The paper-style tail `_mm_extract_epi32(_mm256_castsi256_si128(v), k)`
        must keep working: the cast truncates to the low 4 lanes."""
        from repro.cfront.cparser import parse_function
        from repro.interp.interpreter import run_function

        source = """
void kernel(int * a, int * out, int n)
{
    __m256i v = _mm256_loadu_si256((__m256i*)&a[0]);
    out[0] = _mm_extract_epi32(_mm256_castsi256_si128(v), 1);
}
"""
        func = parse_function(source)
        result = run_function(func, {"a": list(range(10, 18)), "out": [0]}, {"n": 8})
        assert result.outputs()["out"] == [11]
        assert not result.has_ub


class TestMultiTargetCampaign:
    KERNELS = ["s000", "vsumr", "s271"]

    def test_one_invocation_covers_all_targets_over_a_shared_cache(self, tmp_path):
        config = CampaignConfig(workers=1, store_path=tmp_path / "store.jsonl")
        runner = CampaignRunner(config)
        reports = runner.run_multi_target(self.KERNELS)

        assert list(reports) == target_names()
        for target, report in reports.items():
            assert report.summary.target == target
            assert report.summary.kernels == len(self.KERNELS)
            assert report.summary.as_dict()["target"] == target

        # Per-ISA entries in the shared cache never collide.
        all_keys = [record.key for report in reports.values() for record in report.records]
        assert len(all_keys) == len(set(all_keys))

        # A re-run over the same cache is a pure cache hit for every target.
        rerun = CampaignRunner(CampaignConfig(workers=1, store_path=tmp_path / "store.jsonl"))
        reports2 = rerun.run_multi_target(self.KERNELS)
        for report in reports2.values():
            assert report.summary.executed == 0
            assert report.summary.cache_hit_rate == 1.0
        for target in reports:
            assert reports2[target].by_kernel() == {
                k: v for k, v in reports[target].by_kernel().items()
            }

    def test_campaign_config_target_selects_the_isa(self):
        runner = CampaignRunner(CampaignConfig(workers=1, target="sse4"))
        report = runner.run(["s000"])
        assert report.summary.target == "sse4"
        code = report.records[0].result["final_code"]
        assert "_mm_loadu_si128" in code

    def test_avx2_verdicts_identical_at_any_worker_count(self):
        serial = CampaignRunner(CampaignConfig(workers=1)).run(self.KERNELS)
        parallel = CampaignRunner(CampaignConfig(workers=2)).run(self.KERNELS)
        assert serial.by_kernel() == parallel.by_kernel()

    def test_fingerprint_salting_separates_targets(self):
        """The run spec is fingerprinted, so every target keys its own tasks."""
        hashes = {CampaignRunner(CampaignConfig(workers=1, target=name))
                  .vectorize_tasks(["s000"])[0].config_hash for name in target_names()}
        assert len(hashes) == len(target_names())
        payload = {"trip_count": 256, "seed": 11}
        assert len({config_fingerprint({**payload, "target": name})
                    for name in target_names()}) == len(target_names())
