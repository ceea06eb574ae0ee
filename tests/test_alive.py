"""Tests for symbolic execution, the transforms and the translation validator."""

import random

import pytest

from repro.alive import AliveVerifier, VerifierConfig, execute_symbolically
from repro.alive.symexec import SymbolicExecutionError
from repro.cfront.cparser import parse_function
from repro.llm.faults import FaultKind, apply_fault
from repro.smt.terms import TermKind, evaluate, term_size
from repro.transforms import unroll_scalar_function, is_spatially_splittable
from repro.cfront.printer import to_c
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel
from repro.verdict import Verdict


class TestSymbolicExecution:
    def test_straight_line_store(self):
        func = parse_function("void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) a[i] = b[i] + 1; }")
        state = execute_symbolically(func, {"a": 4, "b": 4}, {"n": 4})
        cell = state.regions["a"].cell(2)
        assert evaluate(cell, {"b_2": 41}) == 42

    def test_conditional_merges_with_ite(self):
        func = parse_function(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { if (b[i] > 0) a[i] = 1; else a[i] = 2; } }"
        )
        state = execute_symbolically(func, {"a": 2, "b": 2}, {"n": 2})
        cell = state.regions["a"].cell(0)
        assert evaluate(cell, {"b_0": 5}) == 1
        assert evaluate(cell, {"b_0": (1 << 32) - 5}) == 2

    def test_out_of_bounds_is_recorded_as_ub(self):
        func = parse_function("void f(int n, int *a) { for (int i = 0; i < n; i++) a[i + 2] = 1; }")
        state = execute_symbolically(func, {"a": 4}, {"n": 4})
        assert any("out-of-bounds" in event for event in state.ub_events)

    def test_data_dependent_loop_bound_is_unsupported(self):
        func = parse_function("void f(int n, int *a) { for (int i = 0; i < a[0]; i++) a[i] = 1; }")
        with pytest.raises(SymbolicExecutionError):
            execute_symbolically(func, {"a": 4}, {"n": 4})

    def test_intrinsic_store_matches_scalar_semantics(self):
        vector_src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i < n; i += 8) {
                __m256i vb = _mm256_loadu_si256((__m256i*)&b[i]);
                __m256i one = _mm256_set1_epi32(1);
                _mm256_storeu_si256((__m256i*)&a[i], _mm256_add_epi32(vb, one));
            }
        }
        """
        state = execute_symbolically(parse_function(vector_src), {"a": 8, "b": 8}, {"n": 8})
        assert evaluate(state.regions["a"].cell(3), {"b_3": 9}) == 10


    def test_mask_doubled_in_a_loop_keeps_the_whole_lane_blend(self):
        """Deciding that a mask is 0 / -1 visits each DAG node once: 40
        rounds of ``m ^= m`` make a 2^40-node tree but a 40-node DAG."""
        func = parse_function("""void f(int *a, int *b, int *out, int n) {
    __m256i va = _mm256_loadu_si256((__m256i*)&a[0]);
    __m256i vb = _mm256_loadu_si256((__m256i*)&b[0]);
    __m256i m = _mm256_cmpgt_epi32(va, vb);
    for (int k = 0; k < 40; k++) {
        m = _mm256_xor_si256(m, m);
    }
    _mm256_storeu_si256((__m256i*)&out[0], _mm256_blendv_epi8(va, vb, m));
}""")
        state = execute_symbolically(func, {"a": 8, "b": 8, "out": 8}, {"n": 8})
        cell = state.regions["out"].cell(3)
        assert cell.kind is TermKind.ITE  # the whole-lane form, not per byte
        assert term_size(cell) < 100
        assert evaluate(cell, {"a_3": 5, "b_3": 1}) == 5  # m ^ m is 0: keep a


class TestTransforms:
    def test_c_unroll_produces_expected_structure(self):
        kernel = load_kernel("s000")
        unrolled = unroll_scalar_function(kernel.function, factor=4)
        text = to_c(unrolled)
        assert text.count("a[i] = b[i] + 1") == 4
        assert "while (" in text

    def test_c_unroll_renames_goto_labels(self):
        kernel = load_kernel("s443")
        unrolled = unroll_scalar_function(kernel.function, factor=2)
        text = to_c(unrolled)
        assert "L20_u0" in text and "L20_u1" in text

    def test_c_unroll_preserves_semantics(self):
        from repro.interp.checksum import checksum_testing
        kernel = load_kernel("s271")
        unrolled = unroll_scalar_function(kernel.function, factor=8)
        report = checksum_testing(kernel.source, to_c(unrolled), trip_counts=[16, 32])
        assert report.outcome is Verdict.PLAUSIBLE

    def test_spatial_splitting_precondition(self):
        simple = load_kernel("s000")
        vectorized = vectorize_kernel(simple.function)
        assert is_spatially_splittable(simple.function, vectorized.function)
        recurrence = load_kernel("s453")
        vec2 = vectorize_kernel(recurrence.function)
        assert not is_spatially_splittable(recurrence.function, vec2.function)


class TestVerifier:
    def setup_method(self):
        self.verifier = AliveVerifier()

    @pytest.mark.parametrize("name", ["s000", "s212", "vsumr", "s453", "s271"])
    def test_correct_vectorizations_verify(self, name):
        kernel = load_kernel(name)
        result = vectorize_kernel(kernel.function)
        report = self.verifier.check_with_alive_unroll(kernel.source, result.source)
        assert report.outcome is Verdict.EQUIVALENT, report.detail

    def test_wrong_operator_is_refuted(self):
        kernel = load_kernel("s000")
        correct = vectorize_kernel(kernel.function).source
        buggy = apply_fault(correct, FaultKind.WRONG_OPERATOR, random.Random(1))
        report = self.verifier.check_with_alive_unroll(kernel.source, buggy)
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_relaxed_comparison_is_refuted_when_it_changes_behaviour(self):
        kernel = load_kernel("vif")
        correct = vectorize_kernel(kernel.function).source
        buggy = apply_fault(correct, FaultKind.CMP_OFF_BY_ONE, random.Random(1))
        report = self.verifier.check_with_alive_unroll(kernel.source, buggy)
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_blend_under_a_mask_that_is_not_full_lanes_is_refuted(self):
        """A blend takes ``b``'s byte only where the mask byte's sign bit is
        set, so 0/1 mask lanes never take ``b``: the verifier must refute
        this alone, not only checksum testing."""
        kernel = load_kernel("vif")
        correct = vectorize_kernel(kernel.function).source
        buggy = correct.replace(
            "vgt_2);", "_mm256_and_si256(vgt_2, _mm256_set1_epi32(1)));")
        assert buggy != correct
        report = self.verifier.check_with_alive_unroll(kernel.source, buggy)
        assert report.outcome is Verdict.NOT_EQUIVALENT
        assert report.method == "concrete"

    @pytest.mark.parametrize("stage", ["check_with_alive_unroll", "check_with_c_unroll",
                                       "check_with_spatial_splitting"])
    def test_candidate_that_drops_an_output_array_is_refuted(self, stage):
        # The candidate never takes ``a``, so ``a`` keeps its initial
        # contents, exactly as under checksum testing.
        kernel = load_kernel("s000")
        dropped = "void s000(int n, int *b) { for (int i = 0; i < n; i++) b[i] = b[i]; }"
        result = getattr(self.verifier, stage)(kernel.source, dropped)
        assert result.outcome is Verdict.NOT_EQUIVALENT
        assert result.method == "concrete"
        assert result.counterexample

    def test_unparseable_candidate_is_inconclusive(self):
        kernel = load_kernel("s000")
        report = self.verifier.check_with_alive_unroll(kernel.source, "not C at all {")
        assert report.outcome is Verdict.INCONCLUSIVE

    def test_c_unroll_stage_also_verifies_simple_kernels(self):
        kernel = load_kernel("s000")
        result = vectorize_kernel(kernel.function)
        report = self.verifier.check_with_c_unroll(kernel.source, result.source)
        assert report.outcome is Verdict.EQUIVALENT

    def test_spatial_splitting_verifies_dependence_free_kernel(self):
        kernel = load_kernel("vpvtv")
        result = vectorize_kernel(kernel.function)
        report = self.verifier.check_with_spatial_splitting(kernel.source, result.source)
        assert report.outcome is Verdict.EQUIVALENT

    def test_spatial_splitting_filters_dependent_kernel(self):
        kernel = load_kernel("s453")
        result = vectorize_kernel(kernel.function)
        report = self.verifier.check_with_spatial_splitting(kernel.source, result.source)
        assert report.outcome is Verdict.INCONCLUSIVE

    def test_trip_count_must_exercise_two_blocks(self):
        config = VerifierConfig(trip_count=16)
        assert config.trip_count % 8 == 0
