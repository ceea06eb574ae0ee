"""Dead-blend rules: the residue a dropped conditional leaves behind.

The unsafe-hoist mistake turns ``select(mask, then, else)`` /
``psel(pred, then, else)`` into an unconditional ``add(then, 0)``.  That
leaves two statically visible scars, each its own rule:

* ``dead-mask`` — the comparison that produced ``mask`` is still computed
  but nothing reads it any more.  A vectorized candidate has no reason to
  materialize a comparison it does not consume;
* ``noop-arith`` — the ``add(then, 0)`` itself: adding a zero vector is a
  no-op no generator emits on purpose, and in this subset it is exactly
  the shape an un-guarded blend collapses to (it also covers the case
  where the comparison was nested inline and vanished with the blend, so
  no dead mask remains to see).
"""

from __future__ import annotations

from repro.cfront import ast_nodes as ast
from repro.lanetypes import LaneType
from repro.staticcheck.diagnostics import Severity, StaticReport
from repro.intrinsics.registry import find_intrinsic

#: Generic ops whose results are masks/predicates feeding a blend.
_COMPARE_OPS = {"cmpgt", "cmpeq", "pcmpgt", "pcmpeq"}


def _is_zero_vector(expr: ast.Expr | None, dtype: LaneType) -> bool:
    """Whether ``expr`` constructs an all-zeros vector (setzero / set1(0))."""
    if not isinstance(expr, ast.Call):
        return False
    spec = find_intrinsic(expr.func, dtype)
    if spec is None:
        return False
    if spec.kind == "setzero":
        return True
    if spec.kind == "set1" and len(expr.args) == 1:
        arg = expr.args[0]
        return isinstance(arg, ast.IntLiteral) and arg.value == 0
    return False


def run_deadmask(func: ast.FunctionDef, dtype: LaneType,
                 report: StaticReport) -> None:
    """Flag comparison results assigned to variables that are never read."""
    for call in ast.collect(func, ast.Call):
        spec = find_intrinsic(call.func, dtype)
        if spec is None or spec.op not in ("add", "padd"):
            continue
        operands = call.args[1:3] if spec.op == "padd" else call.args[:2]
        if any(_is_zero_vector(arg, dtype) for arg in operands):
            report.add(
                "noop-arith", Severity.ERROR,
                f"{spec.name} adds an all-zeros vector — a no-op the "
                f"generator never emits; this is the shape a dropped blend "
                f"(hoisted conditional) collapses to", call)

    def compare_call(expr: ast.Expr | None) -> ast.Call | None:
        if isinstance(expr, ast.Call):
            spec = find_intrinsic(expr.func, dtype)
            if spec is not None and spec.op in _COMPARE_OPS:
                return expr
        return None

    masks: dict[str, ast.Node] = {}
    assign_targets: set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Decl) and compare_call(node.init) is not None:
            masks[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.target, ast.Identifier):
            assign_targets.add(id(node.target))
            if node.op == "=" and compare_call(node.value) is not None:
                masks.setdefault(node.target.name, node)
    if not masks:
        return

    read_names = {
        node.name
        for node in ast.walk(func)
        if isinstance(node, ast.Identifier) and id(node) not in assign_targets
    }
    for name, node in masks.items():
        if name not in read_names:
            report.add(
                "dead-mask", Severity.ERROR,
                f"comparison result {name!r} is computed but never consumed; "
                f"the blend it was meant to govern is gone (hoisted "
                f"conditional?)", node)
