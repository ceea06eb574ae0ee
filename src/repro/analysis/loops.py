"""Loop discovery and canonical-form extraction.

The paper (Section 3.1) assumes loops in the canonical form
``for (i = start; i < end; i += step) body`` (and the obvious variants
``<=``, ``!=``, decrementing iterators).  :class:`LoopInfo` captures exactly
that decomposition plus enough structure (nesting depth, parent loop) for the
nested-loop handling of Sections 3.1–3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import ast_nodes as ast


@dataclass
class LoopInfo:
    """A single ``for`` loop in canonical form.

    ``iterator`` is the induction variable name; ``start``, ``end`` and
    ``step`` are expressions (``step`` may be negative for decrementing
    loops); ``end_op`` records the comparison (``<``, ``<=``, ``!=``, ``>``,
    ``>=``).  ``declares_iterator`` is True when the iterator is declared in
    the loop header (``for (int i = ...)``).
    """

    node: ast.ForLoop
    iterator: str | None
    start: ast.Expr | None
    end: ast.Expr | None
    end_op: str | None
    step: int | None
    step_expr: ast.Expr | None
    declares_iterator: bool
    depth: int = 0
    parent: "LoopInfo" | None = None
    children: list["LoopInfo"] = field(default_factory=list)

    @property
    def is_canonical(self) -> bool:
        """True when every canonical-form component was recognized."""
        return (
            self.iterator is not None
            and self.start is not None
            and self.end is not None
            and self.end_op in ("<", "<=", "!=", ">", ">=")
            and self.step is not None
        )

    @property
    def body(self) -> ast.Stmt:
        return self.node.body


@dataclass
class LoopNest:
    """All loops of a function, with nesting structure."""

    loops: list[LoopInfo]

    @property
    def top_level(self) -> list[LoopInfo]:
        return [loop for loop in self.loops if loop.parent is None]

    @property
    def max_depth(self) -> int:
        return max((loop.depth for loop in self.loops), default=-1)


def _extract_init(init: ast.Stmt | None) -> tuple[str | None, ast.Expr | None, bool]:
    """Return (iterator name, start expression, declares_iterator)."""
    if init is None:
        return None, None, False
    if isinstance(init, ast.Decl) and init.init is not None:
        return init.name, init.init, True
    if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign) and init.expr.op == "=":
        target = init.expr.target
        if isinstance(target, ast.Identifier):
            return target.name, init.expr.value, False
    return None, None, False


def _extract_cond(cond: ast.Expr | None, iterator: str | None) -> tuple[ast.Expr | None, str | None]:
    """Return (end expression, comparison operator) if the condition bounds the iterator."""
    if cond is None or iterator is None:
        return None, None
    if isinstance(cond, ast.BinOp) and cond.op in ("<", "<=", "!=", ">", ">="):
        if isinstance(cond.left, ast.Identifier) and cond.left.name == iterator:
            return cond.right, cond.op
        if isinstance(cond.right, ast.Identifier) and cond.right.name == iterator:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}
            return cond.left, flipped[cond.op]
    return None, None


def _extract_step(step: ast.Expr | None, iterator: str | None) -> tuple[int | None, ast.Expr | None]:
    """Return (constant step, step expression) for recognized step forms."""
    if step is None or iterator is None:
        return None, None
    if isinstance(step, (ast.PostfixOp, ast.UnaryOp)) and step.op in ("++", "--"):
        operand = step.operand
        if isinstance(operand, ast.Identifier) and operand.name == iterator:
            return (1 if step.op == "++" else -1), step
    if isinstance(step, ast.Assign) and isinstance(step.target, ast.Identifier) and step.target.name == iterator:
        if step.op == "+=" and isinstance(step.value, ast.IntLiteral):
            return step.value.value, step
        if step.op == "-=" and isinstance(step.value, ast.IntLiteral):
            return -step.value.value, step
        if step.op == "=" and isinstance(step.value, ast.BinOp):
            value = step.value
            if (
                value.op in ("+", "-")
                and isinstance(value.left, ast.Identifier)
                and value.left.name == iterator
                and isinstance(value.right, ast.IntLiteral)
            ):
                magnitude = value.right.value
                return (magnitude if value.op == "+" else -magnitude), step
        if step.op in ("+=", "-="):
            # Non-constant step (e.g. ``i += k``): canonical but unknown constant.
            return None, step
    return None, step


def _build_loop_info(node: ast.ForLoop, depth: int, parent: LoopInfo | None) -> LoopInfo:
    iterator, start, declares = _extract_init(node.init)
    end, end_op = _extract_cond(node.cond, iterator)
    step, step_expr = _extract_step(node.step, iterator)
    return LoopInfo(
        node=node,
        iterator=iterator,
        start=start,
        end=end,
        end_op=end_op,
        step=step,
        step_expr=step_expr,
        declares_iterator=declares,
        depth=depth,
        parent=parent,
    )


def _collect_loops(stmt: ast.Stmt, depth: int, parent: LoopInfo | None, out: list[LoopInfo]) -> None:
    if isinstance(stmt, ast.ForLoop):
        info = _build_loop_info(stmt, depth, parent)
        if parent is not None:
            parent.children.append(info)
        out.append(info)
        _collect_loops(stmt.body, depth + 1, info, out)
        return
    if isinstance(stmt, (ast.WhileLoop, ast.DoWhileLoop)):
        _collect_loops(stmt.body, depth, parent, out)
        return
    if isinstance(stmt, ast.Block):
        for inner in stmt.body:
            _collect_loops(inner, depth, parent, out)
        return
    if isinstance(stmt, ast.If):
        _collect_loops(stmt.then, depth, parent, out)
        if stmt.otherwise is not None:
            _collect_loops(stmt.otherwise, depth, parent, out)
        return
    if isinstance(stmt, ast.Label):
        _collect_loops(stmt.stmt, depth, parent, out)
        return
    # Leaf statements contain no loops.


def find_loops(func: ast.FunctionDef) -> LoopNest:
    """Discover every ``for`` loop in ``func`` and its nesting structure."""
    loops: list[LoopInfo] = []
    _collect_loops(func.body, 0, None, loops)
    return LoopNest(loops=loops)


def find_main_loop(func: ast.FunctionDef) -> LoopInfo | None:
    """Return the innermost loop of the first top-level loop nest.

    TSVC kernels contain one loop nest; vectorization targets its innermost
    loop (the paper's nested-loop handling keeps outer loops untouched).
    """
    nest = find_loops(func)
    if not nest.loops:
        return None
    current = nest.top_level[0]
    while current.children:
        current = current.children[0]
    return current
