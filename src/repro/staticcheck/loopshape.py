"""Loop-shape rules: induction, tail coverage, ramps.

These rules compare each vector loop's *shape* — induction step, bound
truncation, what follows it — against what a correct vectorization at the
active (target, dtype) must look like:

* ``naive-induction`` — a lane ramp built from one repeated scalar
  (``setr(i, i, ..., i)``, ``svindex(i, 0)``): the paper's s453 first
  attempt, where a single scalar update was assumed to cover all lanes;
* ``induction-step`` — a loop stepping its iterator by an amount that is
  not a whole number of vector registers while its body moves full-width
  vectors;
* ``tail-overrun`` — a full-width unpredicated loop whose bound is not
  truncated enough: the last iteration reads or writes past the extent
  the bound implies (the affine-subscript range vs trip count check);
* ``missing-epilogue`` — a correctly truncated full-width loop with no
  tail handling after it (no scalar loop, no masked tail, no predicated
  remainder): the dropped-epilogue fault;
* ``epilogue-mismatch`` (warning) — the declared epilogue strategy does
  not match the candidate's actual tail structure.

The bound analysis reuses :mod:`repro.analysis.accesses`'s affine matcher,
the same machinery the planner's legality checks are built on.
"""

from __future__ import annotations

from repro.analysis.accesses import affine_index
from repro.cfront import ast_nodes as ast
from repro.cfront.printer import expr_to_c
from repro.intrinsics.registry import find_intrinsic
from repro.lanetypes import LaneType
from repro.staticcheck.diagnostics import Severity, StaticReport

#: Spec kinds that move whole registers through memory.
_FULL_WIDTH_MEMORY = {"load", "store"}
_MASKED_MEMORY = {"maskload", "maskstore"}
_PREDICATED_MEMORY = {"pload", "pstore"}
_MEMORY_KINDS = _FULL_WIDTH_MEMORY | _MASKED_MEMORY | _PREDICATED_MEMORY


class LoopShape:
    """One instance checks one function's loops and ramps."""

    def __init__(self, func: ast.FunctionDef, dtype: LaneType, report: StaticReport,
                 epilogue: str | None = None) -> None:
        self.func = func
        self.dtype = dtype
        self.report = report
        self.epilogue = epilogue

    def run(self) -> None:
        self._check_ramps()
        self._scan_block(self.func.body)
        self._check_epilogue_declaration()

    # -- ramps ---------------------------------------------------------------

    def _check_ramps(self) -> None:
        for call in ast.collect(self.func, ast.Call):
            spec = find_intrinsic(call.func, self.dtype)
            if spec is None:
                continue
            if spec.kind in ("setr", "set") and len(call.args) >= 2:
                renderings = {expr_to_c(arg) for arg in call.args}
                if len(renderings) == 1:
                    self.report.add(
                        "naive-induction", Severity.ERROR,
                        f"{spec.name} builds a lane ramp from one repeated "
                        f"value ({renderings.pop()}); consecutive lanes need "
                        f"consecutive values", call)
            elif spec.kind == "index" and len(call.args) == 2:
                step = call.args[1]
                if isinstance(step, ast.IntLiteral) and step.value == 0:
                    self.report.add(
                        "naive-induction", Severity.ERROR,
                        f"{spec.name} with step 0 broadcasts its base "
                        f"instead of building a lane ramp", call)

    # -- loop discovery ------------------------------------------------------

    def _scan_block(self, block: ast.Stmt) -> None:
        if isinstance(block, ast.Block):
            for index, stmt in enumerate(block.body):
                if isinstance(stmt, ast.ForLoop):
                    self._check_loop(stmt, block.body[index + 1:])
                self._scan_block(stmt)
        elif isinstance(block, ast.If):
            self._scan_block(block.then)
            if block.otherwise is not None:
                self._scan_block(block.otherwise)
        elif isinstance(block, (ast.ForLoop, ast.WhileLoop, ast.DoWhileLoop)):
            self._scan_block(block.body)
        elif isinstance(block, ast.Label):
            self._scan_block(block.stmt)

    # -- per-loop analysis ---------------------------------------------------

    def _check_loop(self, loop: ast.ForLoop, rest: list[ast.Stmt]) -> None:
        shape = self._loop_shape(loop)
        if shape["predicated"] or not shape["full_lanes"]:
            return  # predicated loops cover their own tail; scalar loops
        width = shape["full_lanes"]
        step = self._step_amount(loop)
        if step is not None and step >= 1 and step % width != 0:
            self.report.add(
                "induction-step", Severity.ERROR,
                f"loop steps its iterator by {step} while its body moves "
                f"{width}-lane {self.dtype.name} vectors; full-width "
                f"iterations advance by a multiple of {width}", loop)
        if shape["masked"]:
            return  # a masked-memory loop covers its own tail
        iterator = self._iterator_name(loop)
        bound = self._bound(loop, iterator)
        if bound is None:
            return
        slack, symbolic, literal = bound
        if symbolic:
            if slack < width - 1:
                self.report.add(
                    "tail-overrun", Severity.ERROR,
                    f"full-width loop reads {width} lanes from its iterator "
                    f"but its bound leaves only {slack} elements of slack; "
                    f"the last iteration runs {width - 1 - slack} elements "
                    f"past the bound", loop)
            elif not self._covers_tail(rest):
                self.report.add(
                    "missing-epilogue", Severity.ERROR,
                    f"loop is truncated {slack} elements short of its extent "
                    f"but nothing after it handles the remainder (no scalar "
                    f"epilogue, masked tail or predicated remainder)", loop)
        elif literal is not None and step:
            last = ((literal - 1) // step) * step
            if last >= 0 and last + width > literal:
                self.report.add(
                    "tail-overrun", Severity.ERROR,
                    f"full-width loop to {literal} stepping by {step} "
                    f"touches index {last + width - 1}", loop)

    def _loop_shape(self, loop: ast.ForLoop) -> dict:
        """Classify the loop's memory traffic and predication."""
        full_lanes = 0
        masked = False
        predicated = False
        nodes = list(ast.walk(loop.body))
        if loop.cond is not None:
            nodes.extend(ast.walk(loop.cond))
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            spec = find_intrinsic(node.func, self.dtype)
            if spec is None:
                continue
            if spec.op in ("whilelt", "ptest_any"):
                predicated = True
            elif spec.kind in _FULL_WIDTH_MEMORY:
                full_lanes = max(full_lanes, spec.lanes)
            elif spec.kind in _MASKED_MEMORY:
                masked = True
            elif spec.kind in _PREDICATED_MEMORY:
                # Predicate-governed memory in a loop that never constructs
                # a loop predicate is full-width traffic under an all-true
                # governor (the SVE plain-loop idiom).
                full_lanes = max(full_lanes, spec.lanes)
        return {"full_lanes": full_lanes, "masked": masked,
                "predicated": predicated}

    @staticmethod
    def _iterator_name(loop: ast.ForLoop) -> str | None:
        init = loop.init
        if isinstance(init, ast.Decl):
            return init.name
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
            target = init.expr.target
            if isinstance(target, ast.Identifier):
                return target.name
        if isinstance(loop.cond, ast.BinOp) and isinstance(loop.cond.left,
                                                           ast.Identifier):
            return loop.cond.left.name
        return None

    @staticmethod
    def _step_amount(loop: ast.ForLoop) -> int | None:
        step = loop.step
        if isinstance(step, ast.Assign):
            if step.op == "+=" and isinstance(step.value, ast.IntLiteral):
                return step.value.value
            if step.op == "=" and isinstance(step.value, ast.BinOp) \
                    and step.value.op == "+" \
                    and isinstance(step.value.right, ast.IntLiteral):
                return step.value.right.value
        if isinstance(step, (ast.PostfixOp, ast.UnaryOp)) and step.op == "++":
            return 1
        return None

    def _bound(self, loop: ast.ForLoop,
               iterator: str | None) -> tuple[int, bool, int | None] | None:
        """``(slack, symbolic, literal)`` of an ``i < E`` / ``i <= E`` bound.

        ``slack`` is how many elements short of the symbolic base the bound
        stops (``i < n - 7`` has slack 7); ``literal`` carries a fully
        constant bound instead.
        """
        cond = loop.cond
        if not isinstance(cond, ast.BinOp) or cond.op not in ("<", "<="):
            return None
        if not (isinstance(cond.left, ast.Identifier)
                and iterator is not None and cond.left.name == iterator):
            return None
        affine = affine_index(cond.right, None)
        adjust = -1 if cond.op == "<=" else 0
        if affine.symbolic:
            return (-affine.offset + adjust, True, None)
        return (adjust, False, affine.offset - adjust)

    def _covers_tail(self, rest: list[ast.Stmt]) -> bool:
        """Whether anything after the loop can retire leftover iterations."""
        for stmt in rest:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.ForLoop, ast.WhileLoop,
                                     ast.DoWhileLoop)):
                    return True
                if isinstance(node, ast.Call):
                    spec = find_intrinsic(node.func, self.dtype)
                    if spec is not None and spec.kind in (
                            _MASKED_MEMORY | _PREDICATED_MEMORY):
                        return True
        return False

    # -- declared strategy vs structure --------------------------------------

    def _check_epilogue_declaration(self) -> None:
        if not self.epilogue or self.epilogue == "scalar":
            return
        calls = [node for node in ast.walk(self.func)
                 if isinstance(node, ast.Call)]
        kinds = set()
        ops = set()
        for call in calls:
            spec = find_intrinsic(call.func, self.dtype)
            if spec is not None:
                kinds.add(spec.kind)
                ops.add(spec.op)
        if not kinds & _MEMORY_KINDS:
            return  # not a vectorized candidate at all
        if self.epilogue == "masked" and not kinds & _MASKED_MEMORY:
            self.report.add(
                "epilogue-mismatch", Severity.WARNING,
                "candidate declares a masked epilogue but contains no "
                "masked memory operations", self.func)
        elif self.epilogue == "predicated" and "whilelt" not in ops:
            self.report.add(
                "epilogue-mismatch", Severity.WARNING,
                "candidate declares a predicated loop but never constructs "
                "a loop predicate (no whilelt)", self.func)


def run_loopshape(func: ast.FunctionDef, dtype: LaneType,
                  report: StaticReport, epilogue: str | None = None) -> None:
    """The pass entry point: induction, ramp and tail-coverage rules."""
    LoopShape(func, dtype, report, epilogue=epilogue).run()
