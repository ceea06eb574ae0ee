"""Tests for Algorithm 1, the end-to-end tool and the experiment harness."""

import json
import random

import pytest

from repro.llm.client import CompletionRequest
from repro.llm.faults import FaultKind, apply_fault
from repro.llm.prompts import build_vectorization_prompt
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline import (
    EquivalencePipeline,
    LLMVectorizer,
    LLMVectorizerConfig,
    Verdict,
    derive_kernel_seed,
)
from repro.pipeline.campaign import KernelTask
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel


class TestEquivalencePipeline:
    def setup_method(self):
        self.pipeline = EquivalencePipeline()

    def test_correct_candidate_reaches_equivalent(self):
        kernel = load_kernel("s000")
        result = vectorize_kernel(kernel.function)
        report = self.pipeline.check_equivalence(kernel.source, result.source)
        assert report.verdict is Verdict.EQUIVALENT
        assert report.stage_outcomes["checksum"] == "plausible"

    def test_checksum_catches_blatantly_wrong_candidate_first(self):
        kernel = load_kernel("s000")
        wrong = kernel.source.replace("+ 1", "+ 2")
        report = self.pipeline.check_equivalence(kernel.source, wrong)
        assert report.verdict is Verdict.NOT_EQUIVALENT
        assert report.deciding_stage == "checksum"

    def test_uncompilable_candidate_is_refuted_at_checksum(self):
        kernel = load_kernel("s000")
        report = self.pipeline.check_equivalence(kernel.source, "void s000(int n, int *a, int *b) { undeclared(); }")
        assert report.verdict is Verdict.NOT_EQUIVALENT
        assert report.deciding_stage == "checksum"

    def test_stages_run_in_algorithm1_order(self):
        kernel = load_kernel("s212")
        result = vectorize_kernel(kernel.function)
        report = self.pipeline.check_equivalence(kernel.source, result.source)
        stages = list(report.stage_outcomes.keys())
        assert stages[0] == "checksum"
        assert stages[1] == "alive-unroll"

    def test_skip_checksum_goes_straight_to_verification(self):
        kernel = load_kernel("s000")
        result = vectorize_kernel(kernel.function)
        report = self.pipeline.check_equivalence(kernel.source, result.source, skip_checksum=True)
        assert "checksum" not in report.stage_outcomes
        assert report.verdict is Verdict.EQUIVALENT


class TestNegativeShiftImmediate:
    """x86 reads a shift immediate as an unsigned byte: ``-1`` is 255, an
    over-shift that zeroes every lane, so this candidate stores zeros."""

    SCALAR = ("void k(int *a, int *b, int n) {\n"
              "    for (int i = 0; i < n; i++) {\n"
              "        a[i] = 0;\n"
              "    }\n"
              "}\n")
    CANDIDATE = ("#include <immintrin.h>\n"
                 "void k(int *a, int *b, int n) {\n"
                 "    int i = 0;\n"
                 "    for (; i + 8 <= n; i += 8) {\n"
                 "        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);\n"
                 "        _mm256_storeu_si256((__m256i *)&a[i], _mm256_slli_epi32(v, -1));\n"
                 "    }\n"
                 "    for (; i < n; i++) {\n"
                 "        a[i] = 0;\n"
                 "    }\n"
                 "}\n")

    @pytest.mark.parametrize("skip_checksum", [False, True])
    def test_candidate_is_proved_equivalent(self, skip_checksum):
        report = EquivalencePipeline().check_equivalence(
            self.SCALAR, self.CANDIDATE, skip_checksum=skip_checksum)
        assert report.verdict is Verdict.EQUIVALENT
        assert report.deciding_stage == "alive-unroll"


def _scale_kernel(factor: str) -> str:
    return ("void k(int *a, int *b, int n) {\n"
            "    for (int i = 0; i < n; i++) {\n"
            f"        a[i] = b[i] * {factor};\n"
            "    }\n"
            "}\n")


class TestOctalLiteralVerdicts:
    """A leading-zero literal is octal in C, so ``b[i] * 010`` scales by 8."""

    def setup_method(self):
        self.pipeline = EquivalencePipeline()

    def test_octal_ten_is_equivalent_to_eight(self):
        report = self.pipeline.check_equivalence(_scale_kernel("010"), _scale_kernel("8"))
        assert report.verdict is Verdict.EQUIVALENT

    def test_octal_ten_is_not_equivalent_to_decimal_ten(self):
        report = self.pipeline.check_equivalence(_scale_kernel("010"), _scale_kernel("10"))
        assert report.verdict is Verdict.NOT_EQUIVALENT

    def test_invalid_octal_candidate_does_not_compile(self):
        report = self.pipeline.check_equivalence(_scale_kernel("8"), _scale_kernel("08"))
        assert report.verdict is Verdict.NOT_EQUIVALENT
        assert report.stage_outcomes == {"checksum": "cannot_compile"}


class TestLLMVectorizerTool:
    def test_end_to_end_on_motivating_example(self):
        tool = LLMVectorizer(LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=2024)))
        result = tool.vectorize(load_kernel("s212"))
        assert result.plausible
        assert result.vectorized_code is not None
        assert result.verdict in (Verdict.EQUIVALENT, Verdict.INCONCLUSIVE)

    def test_unvectorizable_kernel_reports_not_equivalent(self):
        config = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=1, hard_kernel_success_rate=0.0))
        tool = LLMVectorizer(config)
        result = tool.vectorize(load_kernel("s321"))
        assert not result.plausible
        assert result.verdict is Verdict.NOT_EQUIVALENT


class TestExperimentHarness:
    def test_checksum_evaluation_on_subset(self):
        from repro.experiments import run_checksum_evaluation
        evaluation = run_checksum_evaluation(
            num_completions=6, kernels=["s000", "s212", "s321", "vsumr"],
            llm=SyntheticLLM(SyntheticLLMConfig(seed=9)))
        row = evaluation.table2_row(6)
        assert row["Plausible"] >= 2
        assert sum(row.values()) == 4
        curve = evaluation.pass_at_k([1, 3, 6])
        assert 0.0 <= curve[1] <= curve[3] <= curve[6] <= 1.0

    def test_verification_funnel_on_subset(self):
        from repro.experiments import run_verification_funnel
        candidates = {}
        sources = {}
        for name in ("s000", "vpvtv", "s453"):
            kernel = load_kernel(name)
            candidates[name] = vectorize_kernel(kernel.function).source
            sources[name] = kernel.source
        # Add one refutable candidate.
        vif = load_kernel("vif")
        sources["vif"] = vif.source
        candidates["vif"] = apply_fault(vectorize_kernel(vif.function).source,
                                        FaultKind.CMP_OFF_BY_ONE, random.Random(3))
        funnel = run_verification_funnel(candidates, sources, total_tests=6)
        rows = funnel.rows()
        assert rows[0]["Techniques"] == "Checksum"
        assert rows[-1]["Techniques"] == "All"
        assert len(funnel.verified_kernels) >= 3
        assert "vif" in funnel.refuted_kernels
        assert rows[-1]["Not Equiv"] >= 3  # 2 missing-plausible + vif

    def test_fsm_evaluation_summary_fields(self):
        from repro.experiments import run_fsm_evaluation
        evaluation = run_fsm_evaluation(kernels=["s000", "s271"],
                                        llm=SyntheticLLM(SyntheticLLMConfig(seed=4)))
        summary = evaluation.summary()
        assert summary["kernels"] == 2
        assert summary["solved_within_budget"] >= 1
        assert summary["max_attempts"] >= 1

    def test_performance_evaluation_produces_rows(self):
        from repro.experiments import run_performance_evaluation
        verified = {}
        for name in ("s212", "s000"):
            kernel = load_kernel(name)
            verified[name] = vectorize_kernel(kernel.function).source
        evaluation = run_performance_evaluation(verified, trip_count=64)
        rows = evaluation.speedup_rows()
        assert len(rows) == 2
        low, high = evaluation.speedup_range()
        assert 0 < low <= high
        s212_row = [r for r in rows if r["Test"] == "s212"][0]
        assert s212_row["vs GCC"] > 1.0  # the LLM wins where GCC does not vectorize


#: Table 3 funnel records of synthetic-LLM completions (LLM seed 2024), one
#: per way a candidate leaves the funnel: (kernel, completion index, record
#: exactly as the store serializes it).
FUNNEL_RECORDS = [
    ("s000", 0, '{"kernel": "s000", "verdict": "not_equivalent", "deciding_stage": '
                '"Alive2", "stage_outcomes": {"Alive2": "not_equivalent"}}'),
    ("s000", 1, '{"kernel": "s000", "verdict": "equivalent", "deciding_stage": '
                '"Alive2", "stage_outcomes": {"Alive2": "equivalent"}}'),
    ("s3111", 1, '{"kernel": "s3111", "verdict": "equivalent", "deciding_stage": '
                 '"C-Unroll", "stage_outcomes": {"Alive2": "inconclusive", '
                 '"C-Unroll": "equivalent"}}'),
    ("s1244", 2, '{"kernel": "s1244", "verdict": "not_equivalent", "deciding_stage": '
                 '"C-Unroll", "stage_outcomes": {"Alive2": "inconclusive", '
                 '"C-Unroll": "not_equivalent"}}'),
    ("s1112", 0, '{"kernel": "s1112", "verdict": "inconclusive", "deciding_stage": '
                 'null, "stage_outcomes": {"Alive2": "inconclusive", '
                 '"C-Unroll": "inconclusive", "Splitting": "inconclusive"}}'),
]


class TestFunnelRecords:
    @pytest.mark.parametrize("kernel, index, record", FUNNEL_RECORDS,
                             ids=[f"{k}-{i}" for k, i, _ in FUNNEL_RECORDS])
    def test_funnel_job_record_is_pinned(self, kernel, index, record):
        from repro.experiments.verification_eval import funnel_kernel_job

        source = load_kernel(kernel).source
        llm = SyntheticLLM(SyntheticLLMConfig(seed=derive_kernel_seed(2024, kernel)))
        request = CompletionRequest(prompt=build_vectorization_prompt(source),
                                    kernel_name=kernel, scalar_code=source,
                                    num_completions=index + 1)
        candidate = llm.complete(request)[index].code
        task = KernelTask(kernel=kernel, scalar_code=source, seed=0, config_hash="cfg",
                          payload={}, candidate_code=candidate)
        assert json.dumps(funnel_kernel_job(task)) == record
