"""Tests for the LLM substrate: prompts, faults and the synthetic model."""

import random

from repro.interp.checksum import checksum_testing
from repro.llm import (
    CompletionRequest,
    FaultKind,
    FaultProfile,
    SyntheticLLM,
    SyntheticLLMConfig,
    build_repair_prompt,
    build_vectorization_prompt,
)
from repro.llm.faults import applicable_faults, apply_fault
from repro.llm.prompts import has_dependence_feedback, has_tester_feedback
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel
from repro.verdict import Verdict


class TestPrompts:
    def test_vectorization_prompt_embeds_code_and_target(self):
        prompt = build_vectorization_prompt("void f(int n) { }")
        assert "AVX2" in prompt
        assert "void f(int n)" in prompt
        assert not has_dependence_feedback(prompt)

    def test_dependence_section_detected(self):
        prompt = build_vectorization_prompt("void f(int n) { }", "remark: dependence on a")
        assert has_dependence_feedback(prompt)

    def test_repair_prompt_carries_feedback(self):
        prompt = build_repair_prompt("void f(int n) { }", "void g(int n) { }", "a[0] differs")
        assert has_tester_feedback(prompt)
        assert "a[0] differs" in prompt


class TestFaults:
    def setup_method(self):
        self.kernel = load_kernel("s212")
        self.correct = vectorize_kernel(self.kernel.function).source
        self.rng = random.Random(0)

    def test_applicable_faults_reflect_candidate_contents(self):
        faults = applicable_faults(self.correct)
        assert FaultKind.COMPILE_ERROR in faults
        assert FaultKind.WRONG_OPERATOR in faults
        assert FaultKind.MISSING_EPILOGUE in faults

    def test_compile_error_fault_fails_to_compile(self):
        mutated = apply_fault(self.correct, FaultKind.COMPILE_ERROR, self.rng)
        report = checksum_testing(self.kernel.source, mutated)
        assert report.outcome is Verdict.CANNOT_COMPILE

    def test_wrong_operator_fault_is_caught_by_checksum(self):
        mutated = apply_fault(self.correct, FaultKind.WRONG_OPERATOR, self.rng)
        report = checksum_testing(self.kernel.source, mutated)
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_naive_induction_fault_reproduces_s453_first_attempt(self):
        kernel = load_kernel("s453")
        correct = vectorize_kernel(kernel.function).source
        mutated = apply_fault(correct, FaultKind.NAIVE_INDUCTION, self.rng)
        assert mutated != correct
        report = checksum_testing(kernel.source, mutated)
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_missing_epilogue_survives_multiple_of_width_testing(self):
        kernel = load_kernel("s000")
        correct = vectorize_kernel(kernel.function).source
        mutated = apply_fault(correct, FaultKind.MISSING_EPILOGUE, self.rng)
        report = checksum_testing(kernel.source, mutated, trip_counts=[16, 32])
        assert report.outcome is Verdict.PLAUSIBLE
        report = checksum_testing(kernel.source, mutated, trip_counts=[19])
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_inapplicable_fault_returns_source_unchanged(self):
        kernel = load_kernel("s000")
        correct = vectorize_kernel(kernel.function).source
        assert "_mm256_blendv_epi8" not in correct
        assert apply_fault(correct, FaultKind.UNSAFE_HOIST, self.rng) == correct

    def test_fault_profile_rates_drop_with_context(self):
        profile = FaultProfile()
        assert profile.fault_rate(False, False) > profile.fault_rate(True, False)
        assert profile.fault_rate(True, False) > profile.fault_rate(True, True)


class TestSyntheticLLM:
    def _request(self, kernel, k=1, prompt=None):
        return CompletionRequest(
            prompt=prompt or build_vectorization_prompt(kernel.source),
            kernel_name=kernel.name,
            scalar_code=kernel.source,
            num_completions=k,
        )

    def test_determinism_for_same_seed(self):
        kernel = load_kernel("s000")
        first = SyntheticLLM(SyntheticLLMConfig(seed=5)).complete(self._request(kernel, k=4))
        second = SyntheticLLM(SyntheticLLMConfig(seed=5)).complete(self._request(kernel, k=4))
        assert [c.code for c in first] == [c.code for c in second]

    def test_different_seeds_change_behaviour(self):
        kernel = load_kernel("s271")
        a = SyntheticLLM(SyntheticLLMConfig(seed=1)).complete(self._request(kernel, k=8))
        b = SyntheticLLM(SyntheticLLMConfig(seed=99)).complete(self._request(kernel, k=8))
        assert [c.annotations for c in a] != [c.annotations for c in b]

    def test_requested_number_of_completions(self):
        kernel = load_kernel("s000")
        completions = SyntheticLLM().complete(self._request(kernel, k=7))
        assert len(completions) == 7

    def test_feasible_kernel_eventually_yields_correct_code(self):
        kernel = load_kernel("s212")
        completions = SyntheticLLM().complete(self._request(kernel, k=20))
        assert any(c.annotations.get("mode") == "correct" for c in completions)

    def test_hard_kernel_yields_wrong_or_blocked_attempts(self):
        kernel = load_kernel("s321")  # genuine recurrence: not vectorizable
        completions = SyntheticLLM().complete(self._request(kernel, k=10))
        modes = {c.annotations.get("mode") for c in completions}
        assert modes <= {"broken_wrong", "broken_compile", "blocked_rewrite"}

    def test_invocation_count_tracks_calls(self):
        llm = SyntheticLLM()
        kernel = load_kernel("s000")
        llm.complete(self._request(kernel))
        llm.complete(self._request(kernel))
        assert llm.invocation_count == 2

    def test_blocked_rewrite_is_semantically_correct_when_produced(self):
        from repro.llm.synthetic import _blocked_rewrite
        kernel = load_kernel("s321")
        rewritten = _blocked_rewrite(kernel.function)
        assert rewritten is not None
        report = checksum_testing(kernel.source, rewritten, trip_counts=[16, 21, 40])
        assert report.outcome is Verdict.PLAUSIBLE
