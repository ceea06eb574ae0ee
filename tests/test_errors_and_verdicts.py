"""Tests for the error hierarchy and the verdict vocabulary."""

import ast
import enum
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

from repro.errors import (
    CompileError,
    LexError,
    ParseError,
    ReproError,
    ResourceBudgetExceeded,
    SourceLocation,
    UndefinedBehaviorError,
)
from repro.verdict import Verdict


class TestErrors:
    def test_all_errors_are_repro_errors(self):
        for error_type in (LexError, ParseError, CompileError, UndefinedBehaviorError,
                           ResourceBudgetExceeded):
            assert issubclass(error_type, ReproError)

    def test_lex_and_parse_errors_carry_location(self):
        error = ParseError("unexpected token", SourceLocation(3, 7))
        assert "3:7" in str(error)
        assert error.location.line == 3

    def test_ub_error_records_kind(self):
        error = UndefinedBehaviorError("oob", kind="oob-read")
        assert error.kind == "oob-read"

    def test_budget_error_records_resource(self):
        error = ResourceBudgetExceeded("too many conflicts", resource="sat-conflicts")
        assert error.resource == "sat-conflicts"

    def test_source_location_renders_line_colon_column(self):
        assert str(SourceLocation(12, 4)) == "12:4"


class TestVerdict:
    def test_values_match_paper_vocabulary(self):
        # The paper's four verdicts, checksum testing's uncompilable
        # candidate, the static vetter's screen-mode refutation (a candidate
        # rejected before any execution) and a campaign job that raised.
        assert {v.value for v in Verdict} == {
            "plausible", "equivalent", "not_equivalent", "inconclusive",
            "cannot_compile", "static_reject", "error"}

    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_round_trip_through_value(self, verdict):
        assert Verdict(verdict.value) is verdict


def _identifiers(node: ast.AST) -> list[str]:
    """The names a syntax node defines or refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.keyword) and node.arg is not None:
        return [node.arg]
    if isinstance(node, ast.alias):
        return node.name.split(".") + ([node.asname] if node.asname else [])
    return []


class TestOneVerdict:
    """Regrowth guard: one verdict enum, no copy of it and no translation between copies."""

    REPO = Path(__file__).resolve().parents[1]

    DELETED = {
        "EquivalenceOutcome", "VerificationOutcome", "VerificationReport", "ChecksumOutcome",
        "STATIC_REJECT_OUTCOME", "ERROR_VERDICT", "_OUTCOME_TO_VERDICT", "is_final",
        "run_verification", "_vectorize_suite_serial", "_run_serial_with_instance",
        "_check_pair", "_random_refute", "_sat_check", "is_plausible", "checksum_plausible",
    }

    def test_deleted_names_stay_deleted(self):
        offenders = []
        for folder in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((self.REPO / folder).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    offenders += [f"{path.relative_to(self.REPO)}:{node.lineno} {name}"
                                  for name in _identifiers(node) if name in self.DELETED]
        assert offenders == []
        assert importlib.util.find_spec("repro.pipeline.verdict") is None

    def test_verdict_is_the_only_enum_with_verdict_values(self):
        values = {"equivalent", "not_equivalent", "inconclusive", "plausible", "cannot_compile"}
        found = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for value in vars(module).values():
                if (isinstance(value, type) and issubclass(value, enum.Enum)
                        and value.__module__ == info.name
                        and any(member.value in values for member in value
                                if isinstance(member.value, str))):
                    found.append(f"{info.name}.{value.__name__}")
        assert found == ["repro.verdict.Verdict"]
        assert repro.Verdict is repro.pipeline.Verdict is Verdict
