"""Control-flow normalization used before vectorization planning.

The only transformation performed here is rewriting the TSVC "goto diamond"
pattern into structured ``if``/``else`` so the if-conversion strategy can
handle kernels such as s278 and s443 (the paper notes these need select
instructions and are where GPT-4 gains the most over compilers):

.. code-block:: c

    if (cond) goto L20;        if (cond) { B } else { A }
    A ...                 -->  C ...
    goto L30;
    L20:
    B ...
    L30:
    C ...

The rewrite is purely syntactic and only fires when the pattern matches
exactly (single forward gotos, labels used once); anything else is left
untouched and the planner will reject the kernel.
"""

from __future__ import annotations

from repro.cfront import ast_nodes as ast


def normalize_body(body: ast.Stmt) -> ast.Stmt:
    """Return a copy of ``body`` with recognizable goto diamonds structured.

    Blocks are rewritten in reverse preorder, so each block is rewritten
    after every block nested inside it.
    """
    body = ast.clone_tree(body)
    blocks = [node for node in ast.walk(body) if isinstance(node, ast.Block)]
    for block in reversed(blocks):
        changed = True
        while changed:
            block.body, changed = _rewrite_one_diamond(block.body)
    return body


def _rewrite_one_diamond(stmts: list[ast.Stmt]) -> tuple[list[ast.Stmt], bool]:
    for start, stmt in enumerate(stmts):
        if not (isinstance(stmt, ast.If) and stmt.otherwise is None):
            continue
        then = stmt.then
        if isinstance(then, ast.Block) and len(then.body) == 1:
            then = then.body[0]
        if not isinstance(then, ast.Goto):
            continue
        then_label = then.label
        # Find ``goto join`` followed by ``then_label:`` and later ``join:``.
        goto_join_pos = None
        then_label_pos = None
        for pos in range(start + 1, len(stmts)):
            candidate = stmts[pos]
            if isinstance(candidate, ast.Goto) and goto_join_pos is None and then_label_pos is None:
                goto_join_pos = pos
            elif isinstance(candidate, ast.Label) and candidate.name == then_label:
                then_label_pos = pos
                break
        if goto_join_pos is None or then_label_pos is None or then_label_pos != goto_join_pos + 1:
            continue
        join_label = stmts[goto_join_pos].label
        join_pos = None
        for pos in range(then_label_pos, len(stmts)):
            candidate = stmts[pos]
            if isinstance(candidate, ast.Label) and candidate.name == join_label:
                join_pos = pos
                break
        if join_pos is None:
            continue
        else_body = stmts[start + 1 : goto_join_pos]
        then_body = [stmts[then_label_pos].stmt] + stmts[then_label_pos + 1 : join_pos]
        then_body = [s for s in then_body if not _is_empty(s)]
        else_body = [s for s in else_body if not _is_empty(s)]
        if _contains_goto(then_body) or _contains_goto(else_body):
            continue
        new_if = ast.If(
            cond=stmt.cond,
            then=ast.Block(body=then_body),
            otherwise=ast.Block(body=else_body) if else_body else None,
            location=stmt.location,
        )
        join_stmt = stmts[join_pos].stmt
        tail = [] if _is_empty(join_stmt) else [join_stmt]
        rewritten = stmts[:start] + [new_if] + tail + stmts[join_pos + 1 :]
        return rewritten, True
    return stmts, False


def _contains_goto(stmts: list[ast.Stmt]) -> bool:
    return any(isinstance(node, (ast.Goto, ast.Label))
               for stmt in stmts for node in ast.walk(stmt))


def _is_empty(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, ast.Block) and not stmt.body
