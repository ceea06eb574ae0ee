"""Checksum-based testing (paper Section 2.1).

Given a scalar function and a candidate vectorized function, the tester
initializes the input arrays randomly, executes both functions, and compares
the output arrays.  The outcome is one :class:`~repro.verdict.Verdict`:

* ``PLAUSIBLE`` — outputs matched on every test vector (possibly correct),
* ``NOT_EQUIVALENT`` — some output array differed, or the candidate crashed
  (the report's ``crash`` then holds the interpreter's message),
* ``CANNOT_COMPILE`` — the candidate was rejected before execution
  (parse error, unknown intrinsic, undeclared identifier, ...).

Checksum testing deliberately does *not* fail a candidate for guard-zone
(out-of-bounds-by-a-vector) accesses: on real hardware those reads usually
succeed, which is exactly why the paper needs symbolic verification to catch
bugs like the unconditional load in s124.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cfront import ast_nodes as ast
from repro.errors import (
    CompileError,
    InterpreterError,
    ParseError,
    LexError,
    ReproError,
    UndefinedBehaviorError,
)
from repro.interp.interpreter import ExecutionResult, run_function
from repro.interp.randominit import InputSpec, TestVector, make_test_suite
from repro.memo import IdentityMemo
from repro.verdict import Verdict


@dataclass
class Mismatch:
    """A single observed difference between scalar and vectorized outputs."""

    array: str
    index: int
    expected: int
    actual: int
    trip_count: int

    def __str__(self) -> str:
        return (
            f"{self.array}[{self.index}] differs for n={self.trip_count}: "
            f"scalar={self.expected}, vectorized={self.actual}"
        )


@dataclass
class ChecksumReport:
    """Full report of a checksum-testing run, used as agent feedback."""

    outcome: Verdict
    mismatches: list[Mismatch] = field(default_factory=list)
    compile_error: str | None = None
    #: Why the candidate crashed (its out-of-bounds access, for example) and
    #: at which trip count; None unless it did.
    crash: str | None = None
    tests_run: int = 0
    scalar_ub_events: int = 0
    vector_ub_events: int = 0
    sample_inputs: dict[str, list[int]] = field(default_factory=dict)
    sample_expected: dict[str, list[int]] = field(default_factory=dict)
    sample_actual: dict[str, list[int]] = field(default_factory=dict)

    def feedback_text(self, limit: int = 5) -> str:
        """Human/LLM-readable feedback, mirroring the tester agent's messages."""
        if self.outcome is Verdict.CANNOT_COMPILE:
            return f"The vectorized code does not compile: {self.compile_error}"
        if self.outcome is Verdict.PLAUSIBLE:
            return "The vectorized code matches the scalar code on all random tests."
        if self.crash is not None:
            lines = [f"The vectorized code crashed: {self.crash}"]
        else:
            lines = ["The vectorized code produced different outputs than the scalar code:"]
            lines += [f"  - {mismatch}" for mismatch in self.mismatches[:limit]]
        for header, arrays in (("Example input arrays:", self.sample_inputs),
                               ("Expected (scalar) outputs:", self.sample_expected),
                               ("Actual (vectorized) outputs:", self.sample_actual)):
            if arrays:
                lines.append(header)
                lines += [f"  {name} = {values[:12]}" for name, values in sorted(arrays.items())]
        return "\n".join(lines)


def _ensure_function(code: str | ast.FunctionDef) -> ast.FunctionDef:
    if isinstance(code, ast.FunctionDef):
        return code
    # Shared-AST cache: checksum testing re-sees the same scalar source every
    # attempt and the same candidate source every stage, and the interpreter
    # below never mutates what it executes.
    from repro.vectorizer.plancache import cached_parse

    return cached_parse(code)


def _execute(func: ast.FunctionDef, vector: TestVector) -> ExecutionResult:
    return run_function(func, arrays=vector.arrays, scalars=vector.scalars)


#: Scalar-side memo: during a campaign the tester re-runs the *same* scalar
#: reference over the *same* seeded test suite once per candidate attempt.
#: The interpreter copies array contents on allocation and ``outputs()``
#: snapshots, so suites and results are safely shareable.  Keyed by the
#: identity of the (cache-shared) scalar AST.
_SCALAR_MEMO = IdentityMemo(256)


def _scalar_suite(
    scalar_func: ast.FunctionDef,
    seed: int,
    trip_counts: list[int] | None,
    value_range: tuple[int, int],
) -> tuple[list[TestVector], list[ExecutionResult]]:
    """The seeded test suite plus a lazily-filled list of scalar results."""
    def build() -> tuple[list[TestVector], list[ExecutionResult]]:
        spec = InputSpec.from_function(scalar_func)
        suite = make_test_suite(spec, random.Random(seed), trip_counts=trip_counts,
                                value_range=value_range)
        return suite, []

    salt = (seed, tuple(trip_counts) if trip_counts is not None else None, value_range)
    return _SCALAR_MEMO.get_or_compute(scalar_func, build, salt=salt)


def _compare_outputs(
    scalar_result: ExecutionResult,
    vector_result: ExecutionResult,
    vector: TestVector,
) -> list[Mismatch]:
    mismatches: list[Mismatch] = []
    scalar_out = scalar_result.outputs()
    vector_out = vector_result.outputs()
    trip = next(iter(vector.scalars.values()), 0)
    for name, expected_values in scalar_out.items():
        actual_values = vector_out.get(name)
        if actual_values is None or actual_values == expected_values:
            continue
        for index, (expected, actual) in enumerate(zip(expected_values, actual_values)):
            if expected != actual:
                mismatches.append(
                    Mismatch(
                        array=name,
                        index=index,
                        expected=expected,
                        actual=actual,
                        trip_count=vector.scalars.get("n", trip),
                    )
                )
    return mismatches


def checksum_testing(
    scalar_code: str | ast.FunctionDef,
    vectorized_code: str | ast.FunctionDef,
    seed: int = 0,
    trip_counts: list[int] | None = None,
    value_range: tuple[int, int] = (-1000, 1000),
) -> ChecksumReport:
    """Run checksum-based testing of ``vectorized_code`` against ``scalar_code``."""
    try:
        scalar_func = _ensure_function(scalar_code)
    except (ParseError, LexError) as exc:
        raise ReproError(f"the scalar reference program failed to parse: {exc}") from exc

    try:
        vector_func = _ensure_function(vectorized_code)
    except (ParseError, LexError, CompileError) as exc:
        return ChecksumReport(
            outcome=Verdict.CANNOT_COMPILE, compile_error=str(exc), tests_run=0
        )

    suite, scalar_results = _scalar_suite(scalar_func, seed, trip_counts, value_range)

    report = ChecksumReport(outcome=Verdict.PLAUSIBLE)
    for index, vector in enumerate(suite):
        if index < len(scalar_results):
            scalar_result = scalar_results[index]
        else:
            try:
                scalar_result = _execute(scalar_func, vector)
            except ReproError as exc:
                raise ReproError(f"the scalar reference program failed to execute: {exc}") from exc
            scalar_results.append(scalar_result)
        try:
            vector_result = _execute(vector_func, vector)
        except (CompileError,) as exc:
            return ChecksumReport(
                outcome=Verdict.CANNOT_COMPILE,
                compile_error=str(exc),
                tests_run=report.tests_run,
            )
        except (UndefinedBehaviorError, InterpreterError) as exc:
            report.outcome = Verdict.NOT_EQUIVALENT
            report.crash = f"{exc} (n={vector.scalars.get('n', 0)})"
            report.tests_run += 1
            report.sample_inputs = {k: list(v) for k, v in vector.arrays.items()}
            report.sample_expected = scalar_result.outputs()
            return report

        report.tests_run += 1
        report.scalar_ub_events += len(scalar_result.ub_events)
        report.vector_ub_events += len(vector_result.ub_events)
        mismatches = _compare_outputs(scalar_result, vector_result, vector)
        if mismatches:
            report.outcome = Verdict.NOT_EQUIVALENT
            report.mismatches.extend(mismatches)
            report.sample_inputs = {k: list(v) for k, v in vector.arrays.items()}
            report.sample_expected = scalar_result.outputs()
            report.sample_actual = vector_result.outputs()
            return report
    return report
