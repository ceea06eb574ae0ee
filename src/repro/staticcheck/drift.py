"""Operator-drift rules: the candidate's operators vs the scalar kernel's.

With the scalar source available as a reference, many wrong-operator
mutations are statically visible, from both directions:

* ``operator-drift`` — the candidate computes a vector operation the
  scalar kernel never performs: a subtraction for a kernel that never
  subtracts, a multiplication from nowhere, an equality comparison for a
  kernel whose conditions are all strict.  Only operators the code
  generator never introduces structurally participate (lane-index ramps
  are built from adds, so ``add`` is exempt);
* ``operator-loss`` — the inverse: the scalar loop body multiplies or
  subtracts *values*, but a vectorized loop of the candidate does neither
  in vector form.  This catches drifts *into* ubiquitous operators
  (``mul`` → ``add``) that the drift rule must exempt.  Only operators in
  value position count — a ``-`` inside a subscript (``b[i-1]``) becomes
  pointer arithmetic, not a vector subtraction.
"""

from __future__ import annotations

from repro.cfront import ast_nodes as ast
from repro.intrinsics.registry import find_intrinsic
from repro.lanetypes import LaneType
from repro.staticcheck.diagnostics import Severity, StaticReport

#: Vector ops checkable against scalar operator usage.  Maps the generic
#: op to the scalar spellings that justify it.
_JUSTIFICATIONS: dict[str, frozenset[str]] = {
    "sub": frozenset({"-", "-="}),
    "mul": frozenset({"*", "*="}),
    "cmpeq": frozenset({"==", "!="}),
    "pcmpeq": frozenset({"==", "!="}),
}


#: Generic ops the loss rule demands when the scalar loop body uses them in
#: value position.  ``add`` is excluded on both sides (everything turns
#: into adds); predicate-merging twins count as the operation being present.
_LOSS_OPS: dict[str, frozenset[str]] = {
    "mul": frozenset({"*", "*="}),
    "sub": frozenset({"-", "-="}),
}
_LOSS_EQUIVALENTS: dict[str, frozenset[str]] = {
    "mul": frozenset({"mul", "pmul"}),
    "sub": frozenset({"sub", "psub"}),
}
_MEMORY_KINDS = frozenset({"load", "store", "maskload", "maskstore",
                           "pload", "pstore"})


def _scalar_operators(scalar_func: ast.FunctionDef) -> set[str]:
    operators: set[str] = set()
    for node in ast.walk(scalar_func):
        if isinstance(node, ast.BinOp):
            operators.add(node.op)
        elif isinstance(node, ast.Assign):
            operators.add(node.op)
        elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)):
            operators.add(node.op)
    return operators


def _value_operators(scalar_func: ast.FunctionDef) -> set[str]:
    """Operators used on loop-body *values* — subscript and loop-header
    arithmetic (``b[i-1]``, ``i < n - 1``, ``i += 2``) is excluded, since it
    vectorizes to addressing and bounds, not to vector arithmetic."""
    operators: set[str] = set()

    def visit_expr(expr: ast.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.ArrayRef):
            if not isinstance(expr.base, ast.Identifier):
                visit_expr(expr.base)
            return  # the index subtree is addressing, not value arithmetic
        if isinstance(expr, ast.BinOp):
            operators.add(expr.op)
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, ast.Assign):
            operators.add(expr.op)
            visit_expr(expr.target)
            visit_expr(expr.value)
        elif isinstance(expr, (ast.UnaryOp, ast.PostfixOp)):
            operators.add(expr.op)
            visit_expr(expr.operand)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                visit_expr(arg)
        elif isinstance(expr, ast.TernaryOp):
            visit_expr(expr.cond)
            visit_expr(expr.then)
            visit_expr(expr.otherwise)
        elif isinstance(expr, ast.Cast):
            visit_expr(expr.operand)

    def visit_stmt(stmt: ast.Stmt, in_loop: bool) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                visit_stmt(inner, in_loop)
        elif isinstance(stmt, ast.ExprStmt):
            if in_loop:
                visit_expr(stmt.expr)
        elif isinstance(stmt, ast.Decl):
            if in_loop and stmt.init is not None:
                visit_expr(stmt.init)
        elif isinstance(stmt, ast.If):
            if in_loop:
                visit_expr(stmt.cond)
            visit_stmt(stmt.then, in_loop)
            if stmt.otherwise is not None:
                visit_stmt(stmt.otherwise, in_loop)
        elif isinstance(stmt, (ast.ForLoop, ast.WhileLoop, ast.DoWhileLoop)):
            visit_stmt(stmt.body, True)
        elif isinstance(stmt, ast.Label):
            visit_stmt(stmt.stmt, in_loop)

    visit_stmt(scalar_func.body, False)
    return operators


def run_drift(func: ast.FunctionDef, dtype: LaneType,
              report: StaticReport,
              scalar_func: ast.FunctionDef | None = None) -> None:
    """Flag candidate vector ops with no scalar-source justification."""
    if scalar_func is None:
        return
    scalar_ops = _scalar_operators(scalar_func)
    flagged: set[str] = set()
    for call in ast.collect(func, ast.Call):
        spec = find_intrinsic(call.func, dtype)
        if spec is None or spec.op not in _JUSTIFICATIONS:
            continue
        if spec.op in flagged:
            continue
        justification = _JUSTIFICATIONS[spec.op]
        if justification & scalar_ops:
            continue
        flagged.add(spec.op)
        wanted = " or ".join(sorted(justification))
        report.add(
            "operator-drift", Severity.ERROR,
            f"candidate computes a vector {spec.op!r} ({spec.name}) but the "
            f"scalar kernel never uses {wanted}; an operator was swapped",
            call)

    _check_loss(func, dtype, report, scalar_func)


def _check_loss(func: ast.FunctionDef, dtype: LaneType, report: StaticReport,
                scalar_func: ast.FunctionDef) -> None:
    value_ops = _value_operators(scalar_func)
    demanded = [op for op, spellings in _LOSS_OPS.items()
                if spellings & value_ops]
    if not demanded:
        return
    lost: set[str] = set()
    for loop in ast.collect(func, (ast.ForLoop, ast.WhileLoop,
                                   ast.DoWhileLoop)):
        ops = set()
        kinds = set()
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            spec = find_intrinsic(node.func, dtype)
            if spec is not None:
                ops.add(spec.op)
                kinds.add(spec.kind)
        if not kinds & _MEMORY_KINDS:
            continue  # not a vectorized loop (scalar epilogue)
        for op in demanded:
            if op not in lost and not ops & _LOSS_EQUIVALENTS[op]:
                lost.add(op)
                spelled = " or ".join(sorted(_LOSS_OPS[op]))
                report.add(
                    "operator-loss", Severity.ERROR,
                    f"the scalar loop body uses {spelled} on values but this "
                    f"vectorized loop computes no vector {op!r}; an operator "
                    f"was swapped away", loop)
