"""Tree-walking interpreter for the C subset, including SIMD intrinsics.

The interpreter executes both the scalar TSVC kernels and the vectorized
candidates.  It is the execution substrate behind checksum-based testing
(Section 2.1 of the paper) and behind the performance model (operation counts
collected during execution feed the cycle cost model in :mod:`repro.perf`).

Semantics notes:

* all integer arithmetic is two's-complement wraparound at the kernel's lane
  element width (:func:`repro.cfront.ast_nodes.kernel_dtype`; 32-bit by
  default) — the subset models one uniform element width per kernel, not
  C's int promotion rules;
* pointers are ``(region, offset)`` pairs — distinct arrays never alias,
  matching the non-aliasing assumption the paper establishes for parameters;
* out-of-bounds accesses inside the guard zone yield poison and are recorded
  as UB events rather than crashing (this is what lets checksum testing miss
  the s124-style bug that symbolic verification catches);
* ``goto`` is supported for forward jumps to labels declared in an enclosing
  statement sequence, which covers the TSVC control-flow kernels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.cfront import ast_nodes as ast
from repro.errors import CompileError, InterpreterError, UndefinedBehaviorError
from repro.interp.memory import Memory, UBEvent
from repro.intrinsics.lanemath import lane_active
from repro.intrinsics.registry import (
    apply_pure_intrinsic,
    is_intrinsic,
    lookup_intrinsic,
)
from repro.intrinsics.values import PredValue, VecValue
from repro.lanetypes import ALL_LANE_TYPES, LaneType
from repro.targets import vector_type_lanes_for


@dataclass(frozen=True)
class Pointer:
    """A pointer value: a named region plus an element offset."""

    region: str
    offset: int = 0

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.offset + delta)


Value = int | Pointer | VecValue | PredValue


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Value | None):
        self.value = value
        super().__init__("return")


class _GotoSignal(Exception):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"goto {label}")


@dataclass
class ExecutionResult:
    """Everything observable about one execution of a kernel."""

    memory: Memory
    return_value: Value | None
    op_counts: Counter = field(default_factory=Counter)
    steps: int = 0

    @property
    def ub_events(self) -> list[UBEvent]:
        return self.memory.ub_events

    @property
    def has_ub(self) -> bool:
        return self.memory.has_ub

    def outputs(self) -> dict[str, list[int]]:
        return self.memory.snapshot()

    def checksum(self) -> int:
        return self.memory.checksum()


class Interpreter:
    """Executes a single :class:`~repro.cfront.ast_nodes.FunctionDef`.

    ``memory`` must be modelled at the kernel's lane element type
    (:func:`~repro.cfront.ast_nodes.kernel_dtype`), as :func:`run_function`
    sets it up.
    """

    def __init__(self, func: ast.FunctionDef, memory: Memory, scalars: Mapping[str, int],
                 max_steps: int = 2_000_000):
        self.func = func
        self.memory = memory
        self.scope: dict[str, Value] = {}
        self.max_steps = max_steps
        self.steps = 0
        self.op_counts: Counter = Counter()
        #: The kernel's lane element type; every scalar wraps at its width.
        self.dtype: LaneType = memory.dtype
        self._wrap = self.dtype.wrap
        self._binops = _SCALAR_BINOPS[self.dtype.name]
        self._bind_parameters(scalars)

    # -- setup ----------------------------------------------------------------

    def _bind_parameters(self, scalars: Mapping[str, int]) -> None:
        for param in self.func.params:
            if param.param_type.is_pointer:
                if not self.memory.has_region(param.name):
                    raise CompileError(
                        f"no array provided for pointer parameter {param.name!r}"
                    )
                self.scope[param.name] = Pointer(param.name, 0)
            else:
                if param.name not in scalars:
                    raise CompileError(f"no value provided for scalar parameter {param.name!r}")
                self.scope[param.name] = self._wrap(int(scalars[param.name]))

    # -- bookkeeping ----------------------------------------------------------

    def _tick(self, category: str, amount: int = 1) -> None:
        self.steps += 1
        self.op_counts[category] += amount
        if self.steps > self.max_steps:
            raise InterpreterError(
                f"execution exceeded {self.max_steps} steps (possible infinite loop)"
            )

    # -- public entry ----------------------------------------------------------

    def run(self) -> ExecutionResult:
        return_value: Value | None = None
        try:
            self._exec_stmt(self.func.body)
        except _ReturnSignal as signal:
            return_value = signal.value
        except _GotoSignal as signal:
            raise InterpreterError(f"goto to unknown label {signal.label!r}") from signal
        return ExecutionResult(
            memory=self.memory,
            return_value=return_value,
            op_counts=self.op_counts,
            steps=self.steps,
        )

    # -- statements -------------------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        # Dispatch on the concrete node class: one dict probe instead of a
        # cascade of isinstance checks on the interpretation hot path.
        handler = _STMT_HANDLERS.get(stmt.__class__)
        if handler is None:
            raise InterpreterError(f"cannot execute statement {type(stmt).__name__}")
        handler(self, stmt)

    def _exec_block(self, stmt: ast.Block) -> None:
        self._exec_sequence(stmt.body)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._eval(stmt.expr)

    def _exec_if(self, stmt: ast.If) -> None:
        self._tick("branch")
        if self._truth(self._eval(stmt.cond)):
            self._exec_stmt(stmt.then)
        elif stmt.otherwise is not None:
            self._exec_stmt(stmt.otherwise)

    def _exec_return(self, stmt: ast.Return) -> None:
        value = self._eval(stmt.value) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _exec_break(self, stmt: ast.Break) -> None:
        raise _BreakSignal()

    def _exec_continue(self, stmt: ast.Continue) -> None:
        raise _ContinueSignal()

    def _exec_goto(self, stmt: ast.Goto) -> None:
        raise _GotoSignal(stmt.label)

    def _exec_label(self, stmt: ast.Label) -> None:
        self._exec_stmt(stmt.stmt)

    def _exec_sequence(self, stmts: list[ast.Stmt]) -> None:
        """Execute a statement list, resolving forward ``goto`` jumps locally."""
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            try:
                self._exec_stmt(stmt)
            except _GotoSignal as signal:
                target = self._find_label(stmts, signal.label)
                if target is None:
                    raise
                index = target
                continue
            index += 1

    @staticmethod
    def _find_label(stmts: list[ast.Stmt], label: str) -> int | None:
        for position, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Label) and stmt.name == label:
                return position
        return None

    def _exec_decl(self, decl: ast.Decl) -> None:
        if decl.array_size is not None:
            size = self._as_int(self._eval(decl.array_size))
            if size < 0:
                raise UndefinedBehaviorError(f"negative array size for {decl.name!r}", "bad-alloc")
            self.memory.allocate(decl.name, size)
            self.scope[decl.name] = Pointer(decl.name, 0)
            self._tick("alloc")
            return
        if decl.init is not None:
            value = self._eval(decl.init)
        elif decl.var_type.is_vector:
            lanes = vector_type_lanes_for(decl.var_type.name, self.dtype)
            if not lanes:
                # Scalable vector types carry no width of their own; only an
                # initializer's intrinsic can supply one.
                raise CompileError(
                    f"declaration of scalable vector {decl.name!r} needs an "
                    f"initializer (the width travels with the intrinsics, "
                    f"not with {decl.var_type})"
                )
            value = VecValue.zero(lanes, dtype=self.dtype)
        elif decl.var_type.is_predicate:
            raise CompileError(
                f"declaration of predicate {decl.name!r} needs an initializer "
                f"(predicate widths travel with the intrinsics)"
            )
        elif decl.var_type.is_pointer:
            value = Pointer("__null__", 0)
        else:
            value = 0
        self.scope[decl.name] = self._coerce_for_type(value, decl.var_type)
        self._tick("decl")

    def _exec_for(self, loop: ast.ForLoop) -> None:
        if loop.init is not None:
            self._exec_stmt(loop.init)
        while True:
            if loop.cond is not None:
                self._tick("branch")
                if not self._truth(self._eval(loop.cond)):
                    break
            try:
                self._exec_stmt(loop.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            self.op_counts["loop_iteration"] += 1
            if loop.step is not None:
                self._eval(loop.step)

    def _exec_while(self, loop: ast.WhileLoop) -> None:
        while True:
            self._tick("branch")
            if not self._truth(self._eval(loop.cond)):
                break
            try:
                self._exec_stmt(loop.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
            self.op_counts["loop_iteration"] += 1

    def _exec_do_while(self, loop: ast.DoWhileLoop) -> None:
        while True:
            try:
                self._exec_stmt(loop.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            self.op_counts["loop_iteration"] += 1
            self._tick("branch")
            if not self._truth(self._eval(loop.cond)):
                break

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> Value:
        # Same single-probe dispatch as ``_exec_stmt``.
        handler = _EVAL_HANDLERS.get(expr.__class__)
        if handler is None:
            raise InterpreterError(f"cannot evaluate expression {type(expr).__name__}")
        return handler(self, expr)

    def _eval_literal(self, expr: ast.IntLiteral) -> int:
        return self._wrap(expr.value)

    def _eval_identifier(self, expr: ast.Identifier) -> Value:
        return self._load_identifier(expr.name)

    def _eval_ternary(self, expr: ast.TernaryOp) -> Value:
        self._tick("branch")
        if self._truth(self._eval(expr.cond)):
            return self._eval(expr.then)
        return self._eval(expr.otherwise)

    def _load_identifier(self, name: str) -> Value:
        if name not in self.scope:
            raise CompileError(f"use of undeclared identifier {name!r}")
        self._tick("scalar_read", 0)
        return self.scope[name]

    def _eval_array_load(self, expr: ast.ArrayRef) -> int:
        pointer, index = self._resolve_element(expr)
        value, poison = self.memory.load(pointer.region, pointer.offset + index)
        self._tick("scalar_load")
        if poison:
            # The concrete value is still produced (as on hardware); the UB
            # event has already been recorded by the memory model.
            return value
        return value

    def _resolve_element(self, expr: ast.ArrayRef) -> tuple[Pointer, int]:
        base = self._eval(expr.base)
        index = self._as_int(self._eval(expr.index))
        if not isinstance(base, Pointer):
            raise InterpreterError("array subscript applied to a non-pointer value")
        return base, index

    def _eval_binop(self, expr: ast.BinOp) -> Value:
        op = expr.op
        if op == "&&":
            self._tick("scalar_arith")
            return 1 if self._truth(self._eval(expr.left)) and self._truth(self._eval(expr.right)) else 0
        if op == "||":
            self._tick("scalar_arith")
            return 1 if self._truth(self._eval(expr.left)) or self._truth(self._eval(expr.right)) else 0
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        # Pointer arithmetic: ptr + int, ptr - int, int + ptr.
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return self._pointer_arith(op, left, right)
        lhs, rhs = self._as_int(left), self._as_int(right)
        self._tick("scalar_mul" if op in ("*", "/", "%") else "scalar_arith")
        return self._scalar_binop(op, lhs, rhs)

    def _scalar_binop(self, op: str, lhs: int, rhs: int) -> int:
        fn = self._binops.get(op)
        if fn is not None:
            return fn(lhs, rhs)
        if op == "/":
            if rhs == 0:
                self.memory._record(UBEvent("div-by-zero", "<scalar>", 0, "division by zero"))
                return 0
            return self._wrap(int(lhs / rhs))  # C truncates toward zero
        if op == "%":
            if rhs == 0:
                self.memory._record(UBEvent("div-by-zero", "<scalar>", 0, "modulo by zero"))
                return 0
            return self._wrap(lhs - int(lhs / rhs) * rhs)
        raise InterpreterError(f"unsupported binary operator {op!r}")

    def _pointer_arith(self, op: str, left: Value, right: Value) -> Value:
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            if op == "-" and left.region == right.region:
                return self._wrap(left.offset - right.offset)
            if op in ("==", "!="):
                same = left == right
                return (1 if same else 0) if op == "==" else (0 if same else 1)
            raise InterpreterError(f"unsupported pointer-pointer operation {op!r}")
        if isinstance(left, Pointer):
            delta = self._as_int(right)
            if op == "+":
                return left.advanced(delta)
            if op == "-":
                return left.advanced(-delta)
        if isinstance(right, Pointer) and op == "+":
            return right.advanced(self._as_int(left))
        raise InterpreterError(f"unsupported pointer arithmetic {op!r}")

    def _eval_unary(self, expr: ast.UnaryOp) -> Value:
        op = expr.op
        if op == "&":
            if isinstance(expr.operand, ast.ArrayRef):
                pointer, index = self._resolve_element(expr.operand)
                return pointer.advanced(index)
            if isinstance(expr.operand, ast.Identifier):
                value = self._load_identifier(expr.operand.name)
                if isinstance(value, Pointer):
                    return value
                raise InterpreterError("address-of scalar variables is not supported")
            raise InterpreterError("unsupported address-of operand")
        if op == "*":
            value = self._eval(expr.operand)
            if isinstance(value, Pointer):
                loaded, _poison = self.memory.load(value.region, value.offset)
                self._tick("scalar_load")
                return loaded
            raise InterpreterError("dereference of a non-pointer value")
        if op in ("++", "--"):
            delta = 1 if op == "++" else -1
            return self._apply_increment(expr.operand, delta, return_new=True)
        operand = self._eval(expr.operand)
        value = self._as_int(operand)
        self._tick("scalar_arith")
        if op == "-":
            return self._wrap(-value)
        if op == "+":
            return value
        if op == "!":
            return 0 if value else 1
        if op == "~":
            return self._wrap(~value)
        raise InterpreterError(f"unsupported unary operator {op!r}")

    def _eval_postfix(self, expr: ast.PostfixOp) -> int:
        delta = 1 if expr.op == "++" else -1
        return self._apply_increment(expr.operand, delta, return_new=False)

    def _apply_increment(self, target: ast.Expr, delta: int, return_new: bool) -> int:
        old = self._as_int(self._read_lvalue(target))
        new = self._wrap(old + delta)
        self._write_lvalue(target, new)
        self._tick("scalar_arith")
        return new if return_new else old

    def _eval_assign(self, expr: ast.Assign) -> Value:
        if expr.op == "=":
            value = self._eval(expr.value)
            self._write_lvalue(expr.target, value)
            return value
        # Compound assignment: target op= value.
        base_op = expr.op[:-1]
        current = self._read_lvalue(expr.target)
        rhs = self._eval(expr.value)
        if isinstance(current, Pointer):
            result: Value = self._pointer_arith(base_op, current, rhs)
        else:
            self._tick("scalar_mul" if base_op in ("*", "/", "%") else "scalar_arith")
            result = self._scalar_binop(base_op, self._as_int(current), self._as_int(rhs))
        self._write_lvalue(expr.target, result)
        return result

    def _read_lvalue(self, target: ast.Expr) -> Value:
        if isinstance(target, ast.Identifier):
            return self._load_identifier(target.name)
        if isinstance(target, ast.ArrayRef):
            return self._eval_array_load(target)
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            return self._eval(target)
        raise InterpreterError(f"unsupported lvalue {type(target).__name__}")

    def _write_lvalue(self, target: ast.Expr, value: Value) -> None:
        if isinstance(target, ast.Identifier):
            if target.name not in self.scope:
                raise CompileError(f"assignment to undeclared identifier {target.name!r}")
            existing = self.scope[target.name]
            if isinstance(existing, (VecValue, PredValue)) or isinstance(
                value, (VecValue, PredValue)
            ):
                self.scope[target.name] = value
            elif isinstance(existing, Pointer) or isinstance(value, Pointer):
                self.scope[target.name] = value
            else:
                self.scope[target.name] = self._wrap(self._as_int(value))
            self._tick("scalar_write", 0)
            return
        if isinstance(target, ast.ArrayRef):
            pointer, index = self._resolve_element(target)
            self.memory.store(pointer.region, pointer.offset + index, self._as_int(value))
            self._tick("scalar_store")
            return
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer = self._eval(target.operand)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("store through a non-pointer value")
            self.memory.store(pointer.region, pointer.offset, self._as_int(value))
            self._tick("scalar_store")
            return
        raise InterpreterError(f"unsupported assignment target {type(target).__name__}")

    def _eval_cast(self, expr: ast.Cast) -> Value:
        value = self._eval(expr.operand)
        return self._coerce_for_type(value, expr.target_type)

    def _coerce_for_type(self, value: Value, target_type) -> Value:
        if target_type.is_pointer:
            if isinstance(value, Pointer):
                return value
            if isinstance(value, int) and value == 0:
                return Pointer("__null__", 0)
            raise InterpreterError(f"cannot cast {type(value).__name__} to pointer type")
        if target_type.is_vector:
            if isinstance(value, VecValue):
                return value
            raise InterpreterError(f"cannot cast a scalar to {target_type}")
        if target_type.is_predicate:
            if isinstance(value, PredValue):
                return value
            raise InterpreterError(f"cannot cast a non-predicate to {target_type}")
        if isinstance(value, int):
            return self._wrap(value)
        if isinstance(value, Pointer):
            raise InterpreterError("cannot cast a pointer to int in this subset")
        raise InterpreterError(f"cannot coerce {type(value).__name__} to {target_type}")

    # -- intrinsic calls -----------------------------------------------------------

    def _eval_call(self, expr: ast.Call) -> Value:
        name = expr.func
        if name in ("abs", "labs"):
            value = self._as_int(self._eval(expr.args[0]))
            self._tick("scalar_arith")
            return self._wrap(abs(value))
        if name in ("min", "max"):
            lhs = self._as_int(self._eval(expr.args[0]))
            rhs = self._as_int(self._eval(expr.args[1]))
            self._tick("scalar_arith")
            return min(lhs, rhs) if name == "min" else max(lhs, rhs)
        if not is_intrinsic(name):
            raise CompileError(f"call to unknown function or intrinsic {name!r}")
        spec = lookup_intrinsic(name, self.dtype)
        if len(expr.args) != spec.arity and spec.kind not in ("setr", "set"):
            raise CompileError(
                f"intrinsic {name} expects {spec.arity} arguments, got {len(expr.args)}"
            )
        self.op_counts[f"vec_{spec.kind}"] += 1
        self.op_counts["vector_op"] += 1
        self._tick("vector_instr")
        if spec.kind == "load":
            pointer = self._pointer_argument(expr.args[0])
            values, poison = self.memory.load_vector(pointer.region, pointer.offset, spec.lanes)
            return VecValue.from_lanes(values, poison, dtype=spec.lane_type)
        if spec.kind == "maskload":
            pointer = self._pointer_argument(expr.args[0])
            mask = self._vector_argument(expr.args[1], spec.lanes)
            values: list[int] = []
            poison: list[bool] = []
            for lane in range(spec.lanes):
                if lane_active(mask.lanes[lane], spec.lane_type):
                    value, is_poison = self.memory.load(pointer.region, pointer.offset + lane)
                    values.append(value)
                    poison.append(is_poison)
                else:
                    values.append(0)
                    poison.append(False)
            return VecValue.from_lanes(values, poison, dtype=spec.lane_type)
        if spec.kind == "store":
            pointer = self._pointer_argument(expr.args[0])
            vector = self._vector_argument(expr.args[1], spec.lanes)
            self.memory.store_vector(pointer.region, pointer.offset, list(vector.lanes), list(vector.poison))
            return vector
        if spec.kind == "maskstore":
            pointer = self._pointer_argument(expr.args[0])
            mask = self._vector_argument(expr.args[1], spec.lanes)
            vector = self._vector_argument(expr.args[2], spec.lanes)
            for lane in range(spec.lanes):
                if lane_active(mask.lanes[lane], spec.lane_type):
                    self.memory.store(
                        pointer.region, pointer.offset + lane, vector.lanes[lane], vector.poison[lane]
                    )
            return vector
        if spec.kind == "pload":
            # Predicate-governed load: active lanes read memory (recording
            # OOB/poison like any load), inactive lanes come back zero and —
            # the property the predicated-loop legalization rests on — never
            # touch memory at all.  A poison predicate lane makes the loaded
            # lane unreliable rather than the access itself.
            pred = self._pred_argument(expr.args[0], spec.lanes)
            pointer = self._pointer_argument(expr.args[1])
            values, poison = [], []
            for lane in range(spec.lanes):
                if pred.lanes[lane]:
                    value, is_poison = self.memory.load(pointer.region, pointer.offset + lane)
                    values.append(value)
                    poison.append(is_poison or pred.poison[lane])
                else:
                    values.append(0)
                    poison.append(pred.poison[lane])
            return VecValue.from_lanes(values, poison, dtype=spec.lane_type)
        if spec.kind == "pstore":
            # Mirror image: active lanes store, inactive lanes leave memory
            # untouched; storing under a poison predicate lane stores poison
            # (the checker observes it as a poison-store UB event).
            pred = self._pred_argument(expr.args[0], spec.lanes)
            pointer = self._pointer_argument(expr.args[1])
            vector = self._vector_argument(expr.args[2], spec.lanes)
            for lane in range(spec.lanes):
                if pred.lanes[lane]:
                    self.memory.store(
                        pointer.region, pointer.offset + lane, vector.lanes[lane],
                        vector.poison[lane] or pred.poison[lane],
                    )
            return vector
        if spec.kind == "extract":
            vector = self._vector_argument(expr.args[0], spec.lanes)
            lane = self._as_int(self._eval(expr.args[1])) % spec.lanes
            return vector.lanes[lane]
        if spec.kind == "cast_low":
            # The cast reinterprets the low register half: truncate to half
            # the lanes so narrower downstream consumers see a width-correct
            # value (the historical AVX2 reduction-tail idiom).
            half = spec.lanes // 2
            vector = self._vector_argument(expr.args[0], spec.lanes)
            return VecValue(vector.lanes[:half], vector.poison[:half],
                            vector.dtype)
        args = [self._eval(arg) for arg in expr.args]
        return apply_pure_intrinsic(name, args, self.dtype)

    def _pointer_argument(self, expr: ast.Expr) -> Pointer:
        value = self._eval(expr)
        if not isinstance(value, Pointer):
            raise InterpreterError("intrinsic memory operand is not a pointer")
        return value

    def _vector_argument(self, expr: ast.Expr, lanes: int | None = None) -> VecValue:
        value = self._eval(expr)
        if not isinstance(value, VecValue):
            raise InterpreterError("intrinsic vector operand is not a vector value")
        if lanes is not None and value.width != lanes:
            raise InterpreterError(
                f"intrinsic vector operand has {value.width} lanes, expected {lanes}"
            )
        return value

    def _pred_argument(self, expr: ast.Expr, lanes: int | None = None) -> PredValue:
        value = self._eval(expr)
        if not isinstance(value, PredValue):
            raise InterpreterError("intrinsic predicate operand is not a predicate value")
        if lanes is not None and value.width != lanes:
            raise InterpreterError(
                f"intrinsic predicate operand has {value.width} lanes, expected {lanes}"
            )
        return value

    # -- helpers ---------------------------------------------------------------------

    def _truth(self, value: Value) -> bool:
        if isinstance(value, Pointer):
            return value.region != "__null__"
        return self._as_int(value) != 0

    @staticmethod
    def _as_int(value: Value) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, VecValue):
            raise InterpreterError("a vector value was used where a scalar was expected")
        if isinstance(value, PredValue):
            raise InterpreterError(
                "a predicate value was used where a scalar was expected "
                "(query it with a ptest intrinsic)"
            )
        if isinstance(value, Pointer):
            raise InterpreterError("a pointer value was used where a scalar was expected")
        raise InterpreterError(f"unexpected value of type {type(value).__name__}")


#: Pure scalar operators (no UB to record) as a per-dtype dispatch table;
#: ``/`` and ``%`` stay in ``_scalar_binop`` because a zero divisor records
#: a UB event.  Shift counts mask to the lane width like the vector shifts.
def _scalar_binops_for(dtype: LaneType) -> dict:
    wrap = dtype.wrap
    shift_mask = dtype.bits - 1
    return {
        "+": lambda lhs, rhs: wrap(lhs + rhs),
        "-": lambda lhs, rhs: wrap(lhs - rhs),
        "*": lambda lhs, rhs: wrap(lhs * rhs),
        "<": lambda lhs, rhs: 1 if lhs < rhs else 0,
        ">": lambda lhs, rhs: 1 if lhs > rhs else 0,
        "<=": lambda lhs, rhs: 1 if lhs <= rhs else 0,
        ">=": lambda lhs, rhs: 1 if lhs >= rhs else 0,
        "==": lambda lhs, rhs: 1 if lhs == rhs else 0,
        "!=": lambda lhs, rhs: 1 if lhs != rhs else 0,
        "&": lambda lhs, rhs: wrap(lhs & rhs),
        "|": lambda lhs, rhs: wrap(lhs | rhs),
        "^": lambda lhs, rhs: wrap(lhs ^ rhs),
        "<<": lambda lhs, rhs: wrap(lhs << (rhs & shift_mask)),
        ">>": lambda lhs, rhs: wrap(lhs >> (rhs & shift_mask)),
    }


_SCALAR_BINOPS = {dtype.name: _scalar_binops_for(dtype) for dtype in ALL_LANE_TYPES}

#: Concrete-class dispatch tables for the interpretation hot path, built once
#: at import.  ``stmt.__class__`` keys make each dispatch a single dict probe.
_STMT_HANDLERS = {
    ast.Block: Interpreter._exec_block,
    ast.Decl: Interpreter._exec_decl,
    ast.ExprStmt: Interpreter._exec_expr_stmt,
    ast.If: Interpreter._exec_if,
    ast.ForLoop: Interpreter._exec_for,
    ast.WhileLoop: Interpreter._exec_while,
    ast.DoWhileLoop: Interpreter._exec_do_while,
    ast.Return: Interpreter._exec_return,
    ast.Break: Interpreter._exec_break,
    ast.Continue: Interpreter._exec_continue,
    ast.Goto: Interpreter._exec_goto,
    ast.Label: Interpreter._exec_label,
}

_EVAL_HANDLERS = {
    ast.IntLiteral: Interpreter._eval_literal,
    ast.Identifier: Interpreter._eval_identifier,
    ast.ArrayRef: Interpreter._eval_array_load,
    ast.BinOp: Interpreter._eval_binop,
    ast.UnaryOp: Interpreter._eval_unary,
    ast.PostfixOp: Interpreter._eval_postfix,
    ast.TernaryOp: Interpreter._eval_ternary,
    ast.Assign: Interpreter._eval_assign,
    ast.Cast: Interpreter._eval_cast,
    ast.Call: Interpreter._eval_call,
}


def run_function(
    func: ast.FunctionDef,
    arrays: Mapping[str, list[int]],
    scalars: Mapping[str, int],
    guard: int = 16,
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Execute ``func`` with the given array contents and scalar arguments.

    ``arrays`` maps pointer-parameter names to initial contents; each becomes
    an isolated memory region (plus guard zone).  ``scalars`` maps value
    parameters such as ``n``.
    """
    memory = Memory(dtype=ast.kernel_dtype(func))
    for name, values in arrays.items():
        memory.allocate(name, len(values), values, guard=guard)
    interpreter = Interpreter(func, memory, scalars, max_steps=max_steps)
    return interpreter.run()
