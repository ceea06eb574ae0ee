"""C-level unrolling of the scalar program (paper Section 3.2).

Because verification is restricted to trip counts that are multiples of the
vectorization width, the loop-termination check between consecutive scalar
iterations inside one vector block can be skipped.  This transform performs
that simplification *at the C level*, before symbolic execution: the loop

.. code-block:: c

    for (i = start; i < end; i++) body

becomes

.. code-block:: c

    i = start;
    while (i < end) {        // checked once per block of v iterations
        body; i += step;
        body; i += step;
        ...                  // v copies
    }

with two fix-ups: ``goto`` labels are renamed per unrolled copy so they stay
unique, and duplicated declarations are renamed apart.  A ``break`` stays a
``break``: every copy sits inside the one ``while``, so a ``break`` in any
copy leaves that loop exactly where the original ``break`` left the ``for``.
(Rewriting it to ``return``, as the paper describes, would also skip what
follows the loop and capture the ``break`` of a nested loop.)  A
``continue`` of the main loop has no such translation: it would jump to the
``while`` condition without the iterator step that follows its copy, so it
raises :class:`CUnrollError`.  A ``continue`` inside a nested loop
continues that loop and stays.
"""

from __future__ import annotations

from repro.analysis.loops import find_main_loop
from repro.cfront import ast_nodes as ast
from repro.cfront.ctypes import INT


class CUnrollError(Exception):
    """The function's main loop cannot be unrolled at the C level."""


def unroll_scalar_function(func: ast.FunctionDef, factor: int = 8) -> ast.FunctionDef:
    """Return a copy of ``func`` with its main loop body unrolled ``factor`` times."""
    new_func = ast.clone_tree(func)
    loop_info = find_main_loop(new_func)
    if loop_info is None:
        raise CUnrollError("the function contains no for loop")
    if not loop_info.is_canonical or loop_info.step is None:
        raise CUnrollError("the main loop is not in canonical form")
    loop = loop_info.node
    if _continues(loop.body):
        raise CUnrollError("a continue of the main loop would skip the iterator step after its unrolled copy")

    unrolled_body: list[ast.Stmt] = []
    for copy_index in range(factor):
        body_copy = ast.clone_tree(loop.body)
        body_copy = _rename_labels(body_copy, copy_index)
        body_copy = _rename_local_decls(body_copy, copy_index)
        unrolled_body.append(body_copy)
        unrolled_body.append(ast.ExprStmt(expr=ast.clone_tree(loop.step)))

    new_loop_body = ast.Block(body=unrolled_body)
    replacement_stmts: list[ast.Stmt] = []
    if loop_info.declares_iterator:
        replacement_stmts.append(
            ast.Decl(var_type=INT, name=loop_info.iterator, init=ast.clone_tree(loop_info.start))
        )
    elif loop.init is not None:
        replacement_stmts.append(ast.clone_tree(loop.init))
    block_loop = ast.WhileLoop(cond=ast.clone_tree(loop.cond), body=new_loop_body)
    replacement_stmts.append(block_loop)
    replacement = ast.Block(body=replacement_stmts)

    ast.replace(new_func.body, loop, replacement)
    return new_func


def _continues(body: ast.Stmt) -> bool:
    """Whether a ``continue`` in ``body`` continues the loop ``body`` belongs to."""
    loops = (ast.ForLoop, ast.WhileLoop, ast.DoWhileLoop)
    nested = {id(node) for loop in ast.walk(body) if isinstance(loop, loops) for node in ast.walk(loop)}
    return any(isinstance(node, ast.Continue) and id(node) not in nested for node in ast.walk(body))


def _rename_labels(stmt: ast.Stmt, copy_index: int) -> ast.Stmt:
    suffix = f"_u{copy_index}"
    for node in ast.walk(stmt):
        if isinstance(node, ast.Label):
            node.name = node.name + suffix
        elif isinstance(node, ast.Goto):
            node.label = node.label + suffix
    return stmt


def _rename_local_decls(stmt: ast.Stmt, copy_index: int) -> ast.Stmt:
    """Rename block-local declarations so unrolled copies do not collide."""
    if copy_index == 0:
        return stmt
    renames: dict[str, str] = {}
    for node in ast.walk(stmt):
        if isinstance(node, ast.Decl):
            renames[node.name] = f"{node.name}_u{copy_index}"
    if not renames:
        return stmt
    for node in ast.walk(stmt):
        if isinstance(node, ast.Decl) and node.name in renames:
            node.name = renames[node.name]
        elif isinstance(node, ast.Identifier) and node.name in renames:
            node.name = renames[node.name]
    return stmt
