"""Tests for the memory model, the interpreter and checksum-based testing."""

import pytest

from repro.cfront.cparser import parse_function
from repro.errors import CompileError, InterpreterError, UndefinedBehaviorError
from repro.interp.checksum import checksum_testing
from repro.interp.memory import Memory
from repro.interp import interpreter
from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_vector, randints
import random
from repro.verdict import Verdict


class TestMemory:
    def test_load_store_in_bounds(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4])
        value, poison = memory.load("a", 2)
        assert value == 3 and not poison
        memory.store("a", 2, 99)
        assert memory.load("a", 2)[0] == 99

    def test_guard_zone_read_records_ub_but_does_not_crash(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4], guard=8)
        _value, poison = memory.load("a", 5)
        assert poison
        assert memory.has_ub
        assert memory.ub_events[0].kind == "oob-read"

    def test_far_out_of_bounds_raises(self):
        memory = Memory()
        memory.allocate("a", 4, guard=4)
        with pytest.raises(UndefinedBehaviorError):
            memory.load("a", 100)

    def test_strict_mode_raises_on_guard_access(self):
        memory = Memory(strict=True)
        memory.allocate("a", 4, guard=8)
        with pytest.raises(UndefinedBehaviorError):
            memory.load("a", 6)

    def test_checksum_changes_with_content(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4])
        before = memory.checksum()
        memory.store("a", 0, 42)
        assert memory.checksum() != before


class TestInterpreter:
    def run(self, source, arrays, scalars):
        return run_function(parse_function(source), arrays, scalars)

    def test_simple_loop(self):
        src = "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) a[i] = b[i] + 1; }"
        result = self.run(src, {"a": [0] * 8, "b": list(range(8))}, {"n": 8})
        assert result.outputs()["a"] == [i + 1 for i in range(8)]

    def test_wraparound_arithmetic(self):
        src = "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = a[i] * a[i]; }"
        result = self.run(src, {"a": [2**17] * 2}, {"n": 2})
        assert result.outputs()["a"][0] == (2**34) % (2**32) - 0  # wraps to a positive value

    def test_compound_assignment_and_division_semantics(self):
        src = "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] /= b[i]; } }"
        result = self.run(src, {"a": [-7, 7], "b": [2, 2]}, {"n": 2})
        assert result.outputs()["a"] == [-3, 3]  # C truncates toward zero

    def test_goto_control_flow(self):
        src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i < n; i++) {
                if (a[i] > 0) { goto L20; }
                b[i] = 1;
                goto L30;
                L20:
                b[i] = 2;
                L30:
                ;
            }
        }
        """
        result = self.run(src, {"a": [5, -5, 0, 3], "b": [0] * 4}, {"n": 4})
        assert result.outputs()["b"] == [2, 1, 1, 2]

    def test_break_and_scalar_state(self):
        src = """
        void f(int n, int *a, int *out) {
            int count = 0;
            for (int i = 0; i < n; i++) {
                if (a[i] < 0) { break; }
                count++;
            }
            out[0] = count;
        }
        """
        result = self.run(src, {"a": [1, 2, -1, 4], "out": [0]}, {"n": 4})
        assert result.outputs()["out"] == [2]

    def test_vector_intrinsics_execute(self):
        src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i <= n - 8; i += 8) {
                __m256i va = _mm256_loadu_si256((__m256i*)&a[i]);
                __m256i vb = _mm256_loadu_si256((__m256i*)&b[i]);
                __m256i vs = _mm256_add_epi32(va, vb);
                _mm256_storeu_si256((__m256i*)&a[i], vs);
            }
        }
        """
        result = self.run(src, {"a": list(range(8)), "b": [10] * 8}, {"n": 8})
        assert result.outputs()["a"] == [i + 10 for i in range(8)]
        assert result.op_counts["vector_op"] > 0

    def test_unknown_call_is_compile_error(self):
        src = "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = foo(a[i]); }"
        with pytest.raises(CompileError):
            self.run(src, {"a": [1, 2]}, {"n": 2})

    def test_missing_parameter_is_compile_error(self):
        src = "void f(int n, int *a) { a[0] = n; }"
        with pytest.raises(CompileError):
            run_function(parse_function(src), {"a": [0]}, {})

    def test_infinite_loop_hits_step_budget(self):
        src = "void f(int n, int *a) { for (int i = 0; i < 10; i += 0) a[0] = i; }"
        with pytest.raises(InterpreterError,
                           match=r"^execution exceeded 1000 steps \(possible infinite loop\)$"):
            run_function(parse_function(src), {"a": [0]}, {"n": 1}, max_steps=1000)

    def test_step_budget_is_exact(self):
        src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i < n; i++) { if (b[i] > 0) a[i] += b[i]; else a[i] = -b[i]; }
        }
        """
        func = parse_function(src)
        arrays = {"a": [1, 2, 3, 4], "b": [5, -6, 7, -8]}
        steps = run_function(func, arrays, {"n": 4}).steps
        assert run_function(func, arrays, {"n": 4}, max_steps=steps).steps == steps
        with pytest.raises(InterpreterError, match=f"exceeded {steps - 1} steps"):
            run_function(func, arrays, {"n": 4}, max_steps=steps - 1)

    @pytest.mark.parametrize("dead_code", [
        "a[0] = undeclared;",
        "undeclared = 1;",
        "a[0] = no_such_function(n);",
        "a[0] = abs();",
        "a[0] = max(n, 0, 5);",
        "__m256i v = _mm256_add_epi32(_mm256_setzero_si256());",
        "goto nowhere;",
    ])
    def test_errors_in_code_never_reached_do_not_raise(self, dead_code):
        src = f"void f(int n, int *a) {{ if (n < 0) {{ {dead_code} }} a[0] = n; }}"
        func = parse_function(src)
        assert run_function(func, {"a": [0]}, {"n": 3}).outputs()["a"] == [3]
        with pytest.raises((CompileError, InterpreterError)):
            run_function(func, {"a": [0]}, {"n": -1})

    def test_goto_jumps_to_first_matching_label(self):
        # Backward to the first ``L``, not forward to the second one.
        src = """
        void f(int n, int *a) {
            int k = 0;
            L: k++;
            if (k < n) goto L;
            a[0] = k;
            L: a[1] = 7;
        }
        """
        result = run_function(parse_function(src), {"a": [0, 0]}, {"n": 3})
        assert result.outputs()["a"] == [3, 7]

    def test_goto_to_a_label_in_no_enclosing_sequence_raises(self):
        src = "void f(int n, int *a) { if (n) { L: a[0] = 1; } goto L; }"
        with pytest.raises(InterpreterError, match="goto to unknown label 'L'"):
            run_function(parse_function(src), {"a": [0]}, {"n": 0})

    def test_op_counts_keep_first_use_order(self):
        src = """
        void f(int n, int *a, int *b) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += a[i] * 2; b[i] = s / 3; }
        }
        """
        result = run_function(parse_function(src), {"a": [1, 2], "b": [0, 0]}, {"n": 2})
        assert list(result.op_counts.items()) == [
            ("decl", 2), ("branch", 3), ("scalar_read", 0), ("scalar_arith", 7),
            ("scalar_load", 2), ("scalar_mul", 4), ("scalar_write", 0),
            ("scalar_store", 2), ("loop_iteration", 2),
        ]
        assert result.steps == 44

    def test_int64_division_is_exact(self):
        # A float quotient drops the low bits of 2**62 + 1.
        src = """
        void f(int n, int64_t *a, int64_t *b, int64_t *q, int64_t *r) {
            for (int i = 0; i < n; i++) { q[i] = a[i] / b[i]; r[i] = a[i] % b[i]; }
        }
        """
        big = 2**62 + 1
        arrays = {"a": [big, big, -big, big], "b": [1, 3, 3, -7],
                  "q": [0] * 4, "r": [0] * 4}
        outputs = run_function(parse_function(src), arrays, {"n": 4}).outputs()
        assert outputs["q"] == [big, big // 3, -(big // 3), -(big // 7)]
        assert outputs["r"] == [0, 2, -2, big % 7]

    def test_each_ast_is_compiled_once(self, monkeypatch):
        compiled = []
        original = interpreter._compile
        monkeypatch.setattr(interpreter, "_compile",
                            lambda func, dtype: compiled.append(func) or original(func, dtype))
        func = parse_function("void f(int n, int *a) { a[0] = n; }")
        for n in range(3):
            assert run_function(func, {"a": [0]}, {"n": n}).outputs()["a"] == [n]
        assert compiled == [func]

    def test_one_execution_path(self):
        import repro.interp
        assert not hasattr(repro.interp, "Interpreter")
        assert not hasattr(interpreter, "Interpreter")
        assert not hasattr(interpreter, "_STMT_HANDLERS")
        assert not hasattr(interpreter, "_EVAL_HANDLERS")


class TestChecksumTesting:
    SCALAR = """
    void s(int n, int *a, int *b) {
        for (int i = 0; i < n; i++) a[i] = b[i] * 3;
    }
    """

    def test_identical_semantics_is_plausible(self):
        vectorized = self.SCALAR.replace("void s", "void s")
        report = checksum_testing(self.SCALAR, vectorized)
        assert report.outcome is Verdict.PLAUSIBLE
        assert report.tests_run >= 3

    def test_wrong_constant_is_not_equivalent(self):
        wrong = self.SCALAR.replace("* 3", "* 4")
        report = checksum_testing(self.SCALAR, wrong)
        assert report.outcome is Verdict.NOT_EQUIVALENT
        assert report.mismatches
        assert "differs" in report.feedback_text()

    def test_parse_error_is_cannot_compile(self):
        report = checksum_testing(self.SCALAR, "void broken(int n { }")
        assert report.outcome is Verdict.CANNOT_COMPILE

    def test_unknown_intrinsic_is_cannot_compile(self):
        bad = """
        void s(int n, int *a, int *b) {
            for (int i = 0; i < n; i++) a[i] = _mm256_bogus(b[i]);
        }
        """
        report = checksum_testing(self.SCALAR, bad)
        assert report.outcome is Verdict.CANNOT_COMPILE

    @pytest.mark.parametrize("statement", [
        "a[i] = min(b[i]);",
        "a[i] = abs();",
        "a[i] = labs(b[i], 1);",
        "a[i] = max(b[i], 0, 5);",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_set1_epi32(vb));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_set1_epi32(b));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_setr_epi32(vb, 1, 2, 3, 4, 5, 6, 7));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_set_epi32(0, 1, 2, 3, 4, 5, 6, b));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_slli_epi32(vb, vb));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_slli_epi32(3, 1));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_permute2x128_si256(vb, vb, vb));",
        "_mm256_storeu_si256((__m256i*)&a[i], _mm256_blendv_epi8(vb, vb, 1));",
    ])
    def test_hostile_calls_cannot_compile(self, statement):
        hostile = f"""
        void s(int n, int *a, int *b) {{
            for (int i = 0; i < n; i += 8) {{
                __m256i vb = _mm256_loadu_si256((__m256i*)&b[i]);
                {statement}
            }}
        }}
        """
        report = checksum_testing(self.SCALAR, hostile)
        assert report.outcome is Verdict.CANNOT_COMPILE, report.feedback_text()
        assert report.compile_error

    def test_crash_feedback_says_why_instead_of_a_fake_mismatch(self):
        crashing = self.SCALAR.replace("b[i] * 3", "b[i + 100000] * 3")
        report = checksum_testing(self.SCALAR, crashing)
        assert report.outcome is Verdict.NOT_EQUIVALENT
        assert report.crash == "out-of-bounds read b[100000] (size 72) (n=16)"
        assert report.mismatches == []
        text = report.feedback_text()
        assert text.splitlines()[0] == f"The vectorized code crashed: {report.crash}"
        assert "Example input arrays" in text
        assert "Expected (scalar) outputs" in text
        assert "<crash>" not in text
        assert "Actual (vectorized) outputs" not in text

    def test_feedback_contains_sample_arrays_on_mismatch(self):
        wrong = self.SCALAR.replace("* 3", "+ 1")
        report = checksum_testing(self.SCALAR, wrong)
        text = report.feedback_text()
        assert "Example input arrays" in text
        assert "Expected (scalar) outputs" in text


class TestRandomInit:
    def test_index_arrays_stay_in_range(self):
        spec = InputSpec(array_params=["a", "indx"], scalar_params=["n"])
        vector = make_test_vector(spec, 16, random.Random(0))
        assert all(0 <= v < 16 for v in vector.arrays["indx"])

    def test_trip_count_assigned_to_n(self):
        spec = InputSpec(array_params=["a"], scalar_params=["n", "k"])
        vector = make_test_vector(spec, 24, random.Random(0))
        assert vector.scalars["n"] == 24
        assert 1 <= vector.scalars["k"] <= 4

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("low, high", [
        (7, 7), (1, 5), (-10, 10), (-32, 31), (-512, 511), (-1000, 1000),
        (0, 0), (0, 15), (0, 31), (0, 63),
    ])
    def test_randints_draws_what_randint_draws(self, seed, low, high):
        # Widths 1, 5, 21, 64, 1024 and 2001, and the index ranges 0..n-1.
        drawn, expected = random.Random(seed), random.Random(seed)
        values = randints(drawn, low, high, 300)
        assert values == [expected.randint(low, high) for _ in range(300)]
        assert drawn.getstate() == expected.getstate()

    def test_randints_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            randints(random.Random(0), 3, 2, 1)
