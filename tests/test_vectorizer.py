"""Tests for the rule-based vectorizer: planning, code generation and
correctness — for every target ISA (SSE4 / AVX2 / AVX-512)."""

import pytest

from repro.cfront.cparser import parse_function
from repro.interp.checksum import checksum_testing
from repro.targets import ALL_TARGETS, get_target
from repro.tsvc import load_kernel
from repro.vectorizer import plan_vectorization, vectorize_kernel
from repro.vectorizer.normalize import normalize_body
from repro.vectorizer.planner import RejectionReason, Strategy
from repro.cfront import ast_nodes as ast
from repro.analysis.loops import find_main_loop
from repro.verdict import Verdict

TARGET_NAMES = [t.name for t in ALL_TARGETS]


class TestPlanner:
    def test_plain_elementwise_loop_is_feasible(self):
        plan = plan_vectorization(load_kernel("s000").function)
        assert plan.feasible
        assert plan.strategy is Strategy.PLAIN

    def test_anti_dependence_is_feasible(self):
        plan = plan_vectorization(load_kernel("s212").function)
        assert plan.feasible

    def test_recurrence_is_rejected(self):
        plan = plan_vectorization(load_kernel("s321").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.LOOP_CARRIED_FLOW

    def test_reduction_strategy(self):
        plan = plan_vectorization(load_kernel("vsumr").function)
        assert plan.feasible
        assert plan.strategy is Strategy.REDUCTION

    def test_induction_strategy(self):
        plan = plan_vectorization(load_kernel("s453").function)
        assert plan.feasible
        assert plan.strategy is Strategy.INDUCTION

    def test_control_flow_uses_blend(self):
        plan = plan_vectorization(load_kernel("s271").function)
        assert plan.feasible
        assert plan.strategy is Strategy.BLEND

    def test_packing_pattern_rejected(self):
        plan = plan_vectorization(load_kernel("s341").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.PACKING

    def test_gather_rejected(self):
        plan = plan_vectorization(load_kernel("vag").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.GATHER_SCATTER

    def test_non_unit_step_rejected(self):
        plan = plan_vectorization(load_kernel("s116").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.NON_UNIT_STEP

    def test_overlapping_writes_rejected(self):
        plan = plan_vectorization(load_kernel("s244").function)
        assert not plan.feasible

    def test_early_exit_rejected(self):
        plan = plan_vectorization(load_kernel("s482").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.EARLY_EXIT

    def test_wraparound_scalar_rejected(self):
        plan = plan_vectorization(load_kernel("s291").function)
        assert not plan.feasible
        assert plan.reason is RejectionReason.WRAPAROUND_SCALAR


class TestGotoNormalization:
    def test_s278_diamond_becomes_if_else(self):
        kernel = load_kernel("s278")
        loop = find_main_loop(kernel.function)
        normalized = normalize_body(loop.body)
        assert not any(isinstance(n, ast.Goto) for n in ast.walk(normalized))
        assert any(isinstance(n, ast.If) and n.otherwise is not None for n in ast.walk(normalized))

    def test_normalization_preserves_plan_feasibility_for_s278(self):
        plan = plan_vectorization(load_kernel("s278").function)
        assert plan.feasible


class TestCodegenCorrectness:
    """The generated AVX2 code must agree with the scalar kernel on random inputs."""

    CORRECT_KERNELS = [
        "s000", "s212", "s251", "s271", "s273", "s274", "s278", "s1281",
        "vsumr", "vdotr", "s453", "s452", "s314", "s316", "s3111", "s1351",
        "vpvtv", "vtv", "vif", "s2712", "s441", "s319",
    ]

    @pytest.mark.parametrize("name", CORRECT_KERNELS)
    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_vectorized_kernel_matches_scalar(self, name, target):
        kernel = load_kernel(name)
        result = vectorize_kernel(kernel.function, target)
        assert result is not None, f"{name} should be vectorizable on {target}"
        report = checksum_testing(kernel.source, result.source, seed=123,
                                  trip_counts=[16, 24, 40])
        assert report.outcome is Verdict.PLAUSIBLE, report.feedback_text()

    def test_emitted_code_contains_epilogue_loop(self):
        result = vectorize_kernel(load_kernel("s000").function)
        loops = [n for n in ast.walk(result.function) if isinstance(n, ast.ForLoop)]
        assert len(loops) == 2  # vector loop + scalar epilogue

    def test_emitted_code_uses_avx2_intrinsics(self):
        result = vectorize_kernel(load_kernel("s212").function)
        assert "_mm256_loadu_si256" in result.source
        assert "_mm256_storeu_si256" in result.source
        assert "#include <immintrin.h>" in result.source

    def test_reduction_emits_horizontal_combine(self):
        result = vectorize_kernel(load_kernel("vsumr").function)
        assert "_mm256_extract_epi32" in result.source

    def test_induction_emits_setr_ramp(self):
        result = vectorize_kernel(load_kernel("s453").function)
        assert "_mm256_setr_epi32" in result.source

    def test_infeasible_kernel_returns_none(self):
        assert vectorize_kernel(load_kernel("s321").function) is None

    def test_generated_code_reparses(self):
        result = vectorize_kernel(load_kernel("s274").function)
        reparsed = parse_function(result.source)
        assert reparsed.name == "s274"


class TestMultiTargetCodegen:
    """Every backend emits its own naming and lane count from one plan shape."""

    EXPECTATIONS = {
        "sse4": ("__m128i", "_mm_loadu_si128", "_mm_storeu_si128", "i += 4"),
        "neon": ("int32x4_t", "vld1q_s32", "vst1q_s32", "i += 4"),
        "sve128": ("svint32_t", "svld1_s32_vl128", "svst1_s32_vl128", "i += 4"),
        "avx2": ("__m256i", "_mm256_loadu_si256", "_mm256_storeu_si256", "i += 8"),
        "sve256": ("svint32_t", "svld1_s32_vl256", "svst1_s32_vl256", "i += 8"),
        "avx512": ("__m512i", "_mm512_loadu_si512", "_mm512_storeu_si512", "i += 16"),
    }

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_emitted_names_and_step_follow_the_target(self, target):
        vector_type, loadu, storeu, step = self.EXPECTATIONS[target]
        result = vectorize_kernel(load_kernel("s212").function, target)
        assert vector_type in result.source
        assert loadu in result.source
        assert storeu in result.source
        assert step in result.source
        assert result.target.name == target

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_reduction_extracts_every_lane(self, target):
        isa = get_target(target)
        result = vectorize_kernel(load_kernel("vsumr").function, target)
        assert result.source.count(isa.intrinsic("extract")) == isa.lanes

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_induction_ramp_has_lane_count_arguments(self, target):
        isa = get_target(target)
        result = vectorize_kernel(load_kernel("s453").function, target)
        if isa.supports("index"):
            # SVE ramps are one svindex(base, step) call.
            index = isa.intrinsic("index")
            assert index in result.source
            ramp_calls = [n for n in ast.walk(result.function)
                          if isinstance(n, ast.Call) and n.func == index]
            assert ramp_calls and all(len(call.args) == 2 for call in ramp_calls)
            return
        setr = isa.intrinsic("setr")
        assert setr in result.source
        ramp_calls = [n for n in ast.walk(result.function)
                      if isinstance(n, ast.Call) and n.func == setr]
        assert all(len(call.args) == isa.lanes for call in ramp_calls)

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_avx512_blend_uses_native_masked_op(self, target):
        isa = get_target(target)
        result = vectorize_kernel(load_kernel("s271").function, target)
        blend = isa.intrinsic("select" if isa.supports("select") else "psel")
        assert blend in result.source

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_generated_code_reparses_on_every_target(self, target):
        result = vectorize_kernel(load_kernel("s274").function, target)
        reparsed = parse_function(result.source)
        assert reparsed.name == "s274"


class TestTargetDependentLegality:
    """Lane count changes which dependence distances are vectorizable."""

    DISTANCE_FIVE = """
void kernel(int * a, int * b, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        a[i + 5] = a[i] + b[i];
    }
}
"""

    def test_distance_five_is_legal_at_four_lanes_only(self):
        func = parse_function(self.DISTANCE_FIVE)
        assert plan_vectorization(func, "sse4").feasible
        for wide in ("avx2", "avx512"):
            plan = plan_vectorization(func, wide)
            assert not plan.feasible
            assert plan.reason is RejectionReason.LOOP_CARRIED_FLOW

    def test_sse4_distance_five_codegen_is_correct(self):
        func = parse_function(self.DISTANCE_FIVE)
        result = vectorize_kernel(func, "sse4")
        assert result is not None
        report = checksum_testing(self.DISTANCE_FIVE, result.source, seed=7,
                                  trip_counts=[16, 24, 40])
        assert report.outcome is Verdict.PLAUSIBLE, report.feedback_text()

    def test_default_target_matches_avx2(self):
        func = parse_function(self.DISTANCE_FIVE)
        default_plan = plan_vectorization(func)
        assert default_plan.target.name == "avx2"
        assert not default_plan.feasible

    DIVISION = """
void kernel(int * a, int * b, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        a[i] = b[i] / 2;
    }
}
"""

    @pytest.mark.parametrize("target,isa_name", [
        ("sse4", "SSE4"), ("avx2", "AVX2"), ("avx512", "AVX-512"),
    ])
    def test_rejection_message_names_the_active_target(self, target, isa_name):
        plan = plan_vectorization(parse_function(self.DIVISION), target)
        assert not plan.feasible
        assert plan.reason is RejectionReason.UNSUPPORTED_OPERATION
        assert plan.rejection_text == f"operation has no {isa_name} integer equivalent"
