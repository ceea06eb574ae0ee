"""Predicate-governance rules for predicate-first (SVE-class) targets.

Inside a ``whilelt``-governed loop every predicated memory operation must
be governed by the loop predicate (or something derived from it): a
``ptrue``-governed store writes all lanes of the final, partial iteration
— clobbering memory past the extent — and a ``ptrue``-governed load reads
past it.  The rule traces each ``pload``/``pstore`` governor back to its
construction and reports stores as errors, loads as warnings (the
over-read is unsafe but does not corrupt results by itself).
"""

from __future__ import annotations

from repro.cfront import ast_nodes as ast
from repro.intrinsics.registry import find_intrinsic
from repro.lanetypes import LaneType
from repro.staticcheck.diagnostics import Severity, StaticReport
from repro.targets import TargetISA


def run_predicates(func: ast.FunctionDef, target: TargetISA, dtype: LaneType,
                   report: StaticReport) -> None:
    """Flag all-true-governed memory inside loop-predicated loops."""
    if not target.predicate_type:
        return

    def op_of(expr: ast.Expr) -> str | None:
        if isinstance(expr, ast.Call):
            spec = find_intrinsic(expr.func, dtype)
            if spec is not None:
                return spec.op
        return None

    # Flow-insensitive predicate origins: a name ever assigned from
    # ``whilelt`` (or predicate logic over a whilelt result) counts as
    # loop-derived, so re-assignments inside the loop never false-positive.
    origins: dict[str, str] = {}

    def record(name: str, value: ast.Expr | None) -> None:
        op = op_of(value) if value is not None else None
        if op == "whilelt":
            origins[name] = "whilelt"
        elif op in ("pand", "por", "pnot") and isinstance(value, ast.Call):
            derived = {origins.get(arg.name) for arg in value.args
                       if isinstance(arg, ast.Identifier)}
            if "whilelt" in derived:
                origins[name] = "whilelt"
            elif origins.get(name) != "whilelt":
                origins.setdefault(name, "ptrue")
        elif op == "ptrue" and origins.get(name) != "whilelt":
            origins[name] = "ptrue"

    for node in ast.walk(func):
        if isinstance(node, ast.Decl):
            record(node.name, node.init)
        elif isinstance(node, ast.Assign) and node.op == "=" \
                and isinstance(node.target, ast.Identifier):
            record(node.target.name, node.value)

    def governor_is_all_true(expr: ast.Expr) -> bool:
        if op_of(expr) == "ptrue":
            return True
        if isinstance(expr, ast.Identifier):
            return origins.get(expr.name) == "ptrue"
        return False

    for loop in ast.collect(func, (ast.ForLoop, ast.WhileLoop,
                                   ast.DoWhileLoop)):
        governed = any(
            op_of(node) in ("whilelt", "ptest_any")
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
        )
        if not governed:
            continue
        for call in ast.collect(loop.body, ast.Call):
            spec = find_intrinsic(call.func, dtype)
            if spec is None or spec.kind not in ("pload", "pstore") \
                    or not call.args:
                continue
            if governor_is_all_true(call.args[0]):
                what = "store" if spec.kind == "pstore" else "load"
                severity = (Severity.ERROR if spec.kind == "pstore"
                            else Severity.WARNING)
                report.add(
                    "ungoverned-memory", severity,
                    f"{spec.name} {what}s all lanes under an all-true "
                    f"predicate inside a whilelt-governed loop; the final "
                    f"partial iteration runs past the extent", call)
