"""Tests for the multi-agent FSM orchestration."""

from repro.agents import CompilerTesterAgent, FSMConfig, UserProxyAgent, VectorizationFSM
from repro.llm.faults import FaultKind, FaultProfile
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel
from repro.verdict import Verdict


def _llm(seed=0, **profile_kwargs):
    profile = FaultProfile(**profile_kwargs) if profile_kwargs else FaultProfile()
    return SyntheticLLM(SyntheticLLMConfig(seed=seed, fault_profile=profile))


class TestUserProxy:
    def test_initial_message_contains_code_and_dependence_analysis(self):
        kernel = load_kernel("s212")
        prompt = UserProxyAgent(kernel.source).opening_prompt()
        assert "a[i]" in prompt
        assert "dependence" in prompt.lower()


class TestTesterAgent:
    def test_accepts_correct_candidate(self):
        kernel = load_kernel("s000")
        correct = vectorize_kernel(kernel.function).source
        tester = CompilerTesterAgent(kernel.source)
        reply = tester.test(correct)
        assert reply.outcome is Verdict.PLAUSIBLE
        assert reply.report is not None and reply.static_report is not None

    def test_rejects_wrong_candidate_with_feedback(self):
        kernel = load_kernel("s000")
        wrong = kernel.source.replace("+ 1", "+ 2")
        tester = CompilerTesterAgent(kernel.source)
        reply = tester.test(wrong)
        assert reply.outcome is Verdict.NOT_EQUIVALENT
        assert "differs" in reply.feedback
        assert reply.feedback == reply.report.feedback_text()


class TestFSM:
    def test_accepts_within_budget_for_easy_kernel(self):
        kernel = load_kernel("s000")
        result = VectorizationFSM(_llm(), kernel.name, kernel.source, FSMConfig(max_attempts=10)).run()
        assert result.accepted
        assert result.final_code is not None
        assert result.attempts <= 10

    def test_repair_loop_fixes_forced_induction_bug(self):
        profile_kwargs = dict(base_fault_rate=1.0, with_dependence_info_rate=1.0,
                              with_feedback_rate=0.0,
                              kind_weights={FaultKind.NAIVE_INDUCTION: 1.0})
        kernel = load_kernel("s453")
        llm = _llm(seed=3, **profile_kwargs)
        result = VectorizationFSM(llm, kernel.name, kernel.source, FSMConfig(max_attempts=10)).run()
        assert result.accepted
        assert result.attempts > 1
        assert result.repaired

    def test_gives_up_after_max_attempts_on_impossible_kernel(self):
        kernel = load_kernel("s321")
        # Disable the occasional correct blocked rewrite so the FSM must fail.
        llm = SyntheticLLM(SyntheticLLMConfig(seed=1, hard_kernel_success_rate=0.0))
        result = VectorizationFSM(llm, kernel.name, kernel.source, FSMConfig(max_attempts=3)).run()
        assert not result.accepted
        assert result.attempts == 3

    def test_one_llm_invocation_per_attempt(self):
        kernel = load_kernel("s271")
        llm = _llm(seed=11)
        result = VectorizationFSM(llm, kernel.name, kernel.source, FSMConfig(max_attempts=5)).run()
        assert result.llm_invocations == result.attempts
