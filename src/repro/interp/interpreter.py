"""Closure-compiling interpreter for the C subset, including SIMD intrinsics.

The interpreter executes both the scalar TSVC kernels and the vectorized
candidates.  It is the execution substrate behind checksum-based testing
(Section 2.1 of the paper) and behind the performance model (operation counts
collected during execution feed the cycle cost model in :mod:`repro.perf`).

Each :class:`~repro.cfront.ast_nodes.FunctionDef` is compiled once into
nested Python closures (Feeley & Lapalme, "Using closures for code
generation", 1987) and the closures are memoized on the identity of the
shared AST.  Everything that depends only on the program is resolved at
compile time: node dispatch, operator strings, the kernel dtype's scalar
operator table, intrinsic specs and arities, and vector-type lane counts.
What depends on the run — the flat variable scope, the memory, the step
budget and the operation counts — lives on one per-run state object that
every closure takes.  Compilation itself never fails: a construct that
cannot execute compiles to a closure that raises when it is reached, so
code that never runs never raises.  :func:`run_function` is the only entry.

Each closure does as much of a step as it can without calling another
(Proebsting's superoperators, POPL 1995): operators, subscripts,
``++``/``--`` and compound assignments read identifier and literal operands
in place, steps are charged and ``+ - *`` wrapped inline, in-bounds memory
is indexed directly, and ``(T *)&a[i]`` becomes a region and an offset.
Each such fast path is a test at the top of its closure that falls through
to the general code (:func:`_read`, :class:`Memory`'s accesses,
``apply_pure_spec``) on an undeclared name, a budget about to run out, an
access outside the declared extent or a value of another kind, so steps,
operation counts, UB events and errors stay the same, in the same order.

Semantics notes:

* all integer arithmetic is two's-complement wraparound at the kernel's lane
  element width (:func:`repro.cfront.ast_nodes.kernel_dtype`; 32-bit by
  default) — the subset models one uniform element width per kernel, not
  C's int promotion rules; ``/`` and ``%`` truncate toward zero exactly;
* pointers are ``(region, offset)`` pairs — distinct arrays never alias,
  matching the non-aliasing assumption the paper establishes for parameters;
* out-of-bounds accesses inside the guard zone yield poison and are recorded
  as UB events rather than crashing (this is what lets checksum testing miss
  the s124-style bug that symbolic verification catches);
* ``goto`` jumps to the first label of that name in an enclosing statement
  sequence, forward or backward, which covers the TSVC control-flow kernels.

Every executed step ticks an operation category: ``steps`` counts the ticks
and ``op_counts`` sums them per category in first-use order, which is the
order :meth:`repro.perf.costmodel.CostModel.cycles_for` adds them up in.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.cfront import ast_nodes as ast
from repro.errors import CompileError, InterpreterError, UndefinedBehaviorError
from repro.interp.memory import Memory, UBEvent
from repro.intrinsics.lanemath import binary_lanes, lane_active
from repro.intrinsics.registry import apply_pure_spec, is_intrinsic, lookup_intrinsic
from repro.intrinsics.values import PredValue, VecValue
from repro.lanetypes import ALL_LANE_TYPES, LaneType, trunc_div
from repro.memo import IdentityMemo
from repro.targets import vector_type_lanes_for


@dataclass(frozen=True)
class Pointer:
    """A pointer value: a named region plus an element offset."""

    region: str
    offset: int = 0

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.offset + delta)


Value = int | Pointer | VecValue | PredValue

_NULL = Pointer("__null__", 0)


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


# ---------------------------------------------------------------------------
# run-time state and control signals
# ---------------------------------------------------------------------------


class _Run:
    """Per-run state every compiled closure takes as its one argument."""

    __slots__ = ("scope", "memory", "regions", "counts", "left", "max_steps", "ret")

    def __init__(self, scope: dict[str, Value], memory: Memory, max_steps: int):
        self.scope = scope
        self.memory = memory
        #: ``memory.regions``, which in-bounds accesses index directly.
        self.regions = memory.regions
        #: Operation counts in first-use order; a ``Counter`` increments
        #: several times slower than a ``defaultdict``.
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: Steps still allowed; one step past the budget raises.
        self.left = max_steps
        self.max_steps = max_steps
        self.ret: Value | None = None


def _over_budget(st: _Run) -> None:
    """Raise for the step past the budget.

    Every closure charges its steps inline: ``st.left -= 1`` and
    ``st.counts[category] += 1`` (``+= 0`` for a variable read or write,
    which only keeps the category's first-use place), then this call when
    ``st.left`` is negative.  A closure that charges several steps at once
    first checks that ``st.left`` covers them all.
    """
    raise InterpreterError(f"execution exceeded {st.max_steps} steps (possible infinite loop)")


def _read(name: str, st: _Run) -> Value:
    """The value of variable ``name``: one ``scalar_read`` step."""
    scope = st.scope
    if name not in scope:
        raise CompileError(f"use of undeclared identifier {name!r}")
    st.left -= 1
    st.counts["scalar_read"] += 0
    if st.left < 0:
        _over_budget(st)
    return scope[name]


class _Signal:
    """Non-local control flow, returned (never raised) by statement closures.

    Statement closures return None — or, for an expression statement, the
    expression's value — on normal completion, and a signal otherwise.
    """

    __slots__ = ("label",)

    def __init__(self, label: str | None = None):
        self.label = label


_BREAK = _Signal()
_CONTINUE = _Signal()
_RETURN = _Signal()


class _BreakSignal(Exception):
    """``break`` outside any loop, escaping the function."""


class _ContinueSignal(Exception):
    """``continue`` outside any loop, escaping the function."""


#: Compiled code: closures over the per-run state.
ExprFn = Callable[[_Run], Value]
StmtFn = Callable[[_Run], object]


# ---------------------------------------------------------------------------
# value helpers
# ---------------------------------------------------------------------------


def _as_int(value: Value) -> int:
    if value.__class__ is int:
        return value
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


def _truth(value: Value) -> bool:
    if value.__class__ is int:
        return value != 0
    if isinstance(value, Pointer):
        return value.region != "__null__"
    return _as_int(value) != 0


def _subscript(pointer: Value, index: Value) -> tuple[Pointer, int]:
    """``pointer[index]``'s operands, raising what a non-int index or a
    non-pointer base raises."""
    index = _as_int(index)
    if not isinstance(pointer, Pointer):
        raise InterpreterError("array subscript applied to a non-pointer value")
    return pointer, index


def _pointer_arith(op: str, left: Value, right: Value, wrap) -> Value:
    if isinstance(left, Pointer) and isinstance(right, Pointer):
        if op == "-" and left.region == right.region:
            return wrap(left.offset - right.offset)
        if op in ("==", "!="):
            same = left == right
            return (1 if same else 0) if op == "==" else (0 if same else 1)
        raise InterpreterError(f"unsupported pointer-pointer operation {op!r}")
    if isinstance(left, Pointer):
        delta = _as_int(right)
        if op == "+":
            return left.advanced(delta)
        if op == "-":
            return left.advanced(-delta)
    if isinstance(right, Pointer) and op == "+":
        return right.advanced(_as_int(left))
    raise InterpreterError(f"unsupported pointer arithmetic {op!r}")


def _raiser(error: type[Exception], message: str) -> Callable[..., Value]:
    """A closure that raises ``error(message)`` each time it is reached."""
    def fail(*_args):
        raise error(message)
    return fail


def _scalar_ops(dtype: LaneType) -> dict[str, Callable[[_Run, int, int], int]]:
    """Pure scalar operators at ``dtype``, in the ``(state, lhs, rhs)`` form
    of :meth:`_Compiler.arithmetic`.

    ``/`` and ``%`` are compiled separately because a zero divisor records
    a UB event.  Shift counts mask to the lane width like the vector shifts.
    ``+ - *`` wrap inline: ``((v + sign_bit) & mask) - sign_bit`` is
    ``dtype.wrap(v)`` without the call.
    """
    wrap, count, sign, mask = dtype.wrap, dtype.bits - 1, dtype.sign_bit, dtype.mask
    return {
        "+": lambda st, a, b: ((a + b + sign) & mask) - sign,
        "-": lambda st, a, b: ((a - b + sign) & mask) - sign,
        "*": lambda st, a, b: ((a * b + sign) & mask) - sign,
        "<": lambda st, a, b: 1 if a < b else 0,
        ">": lambda st, a, b: 1 if a > b else 0,
        "<=": lambda st, a, b: 1 if a <= b else 0,
        ">=": lambda st, a, b: 1 if a >= b else 0,
        "==": lambda st, a, b: 1 if a == b else 0,
        "!=": lambda st, a, b: 1 if a != b else 0,
        "&": lambda st, a, b: wrap(a & b),
        "|": lambda st, a, b: wrap(a | b),
        "^": lambda st, a, b: wrap(a ^ b),
        "<<": lambda st, a, b: wrap(a << (b & count)),
        ">>": lambda st, a, b: wrap(a >> (b & count)),
    }


#: The scalar operator table of each dtype, shared by every compiled program.
_SCALAR_OPS = {dtype.name: _scalar_ops(dtype) for dtype in ALL_LANE_TYPES}


def _category(op: str) -> str:
    return "scalar_mul" if op in ("*", "/", "%") else "scalar_arith"


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Compiles one function's statements and expressions into closures."""

    def __init__(self, dtype: LaneType):
        self.dtype = dtype
        self.wrap = dtype.wrap
        self.sign, self.mask = dtype.sign_bit, dtype.mask
        self.ops = _SCALAR_OPS[dtype.name]

    # -- statements ---------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> StmtFn:
        method = _STMT_COMPILERS.get(node.__class__)
        if method is None:
            return _raiser(InterpreterError, f"cannot execute statement {type(node).__name__}")
        return method(self, node)

    def block(self, node: ast.Block) -> StmtFn:
        return self.sequence(node.body)

    def sequence(self, stmts: list[ast.Stmt]) -> StmtFn:
        """A statement list, resolving ``goto`` to its own labels locally."""
        body = tuple(self.stmt(stmt) for stmt in stmts)
        labels: dict[str, int] = {}
        for position, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Label):
                labels.setdefault(stmt.name, position)
        if not labels:
            if len(body) == 1:
                return body[0]

            def run_sequence(st: _Run):
                for run in body:
                    signal = run(st)
                    if signal.__class__ is _Signal:
                        return signal
                return None
            return run_sequence

        def run_labelled(st: _Run):
            index, end = 0, len(body)
            while index < end:
                signal = body[index](st)
                if signal.__class__ is _Signal:
                    target = labels.get(signal.label)
                    if target is None:
                        return signal
                    index = target
                    continue
                index += 1
            return None
        return run_labelled

    def expr_stmt(self, node: ast.ExprStmt) -> StmtFn:
        # An expression's value is never a signal, so it serves as "done".
        return self.expr(node.expr)

    def if_stmt(self, node: ast.If) -> StmtFn:
        cond, then = self.expr(node.cond), self.stmt(node.then)
        otherwise = self.stmt(node.otherwise) if node.otherwise is not None else None

        def run_if(st: _Run):
            st.left -= 1
            st.counts["branch"] += 1
            if st.left < 0:
                _over_budget(st)
            if _truth(cond(st)):
                return then(st)
            if otherwise is not None:
                return otherwise(st)
            return None
        return run_if

    def return_stmt(self, node: ast.Return) -> StmtFn:
        value = self.expr(node.value) if node.value is not None else None

        def run_return(st: _Run):
            st.ret = value(st) if value is not None else None
            return _RETURN
        return run_return

    def break_stmt(self, node: ast.Break) -> StmtFn:
        return lambda st: _BREAK

    def continue_stmt(self, node: ast.Continue) -> StmtFn:
        return lambda st: _CONTINUE

    def goto_stmt(self, node: ast.Goto) -> StmtFn:
        signal = _Signal(node.label)
        return lambda st: signal

    def label_stmt(self, node: ast.Label) -> StmtFn:
        return self.stmt(node.stmt)

    def decl(self, node: ast.Decl) -> StmtFn:
        name, var_type = node.name, node.var_type
        if node.array_size is not None:
            size_of = self.expr(node.array_size)

            def run_alloc(st: _Run):
                size = _as_int(size_of(st))
                if size < 0:
                    raise UndefinedBehaviorError(f"negative array size for {name!r}", "bad-alloc")
                st.memory.allocate(name, size)
                st.scope[name] = Pointer(name, 0)
                st.left -= 1
                st.counts["alloc"] += 1
                if st.left < 0:
                    _over_budget(st)
            return run_alloc
        if node.init is not None:
            init = self.expr(node.init)
        elif var_type.is_vector:
            lanes = vector_type_lanes_for(var_type.name, self.dtype)
            if not lanes:
                # Scalable vector types carry no width of their own; only an
                # initializer's intrinsic can supply one.
                init = _raiser(
                    CompileError,
                    f"declaration of scalable vector {name!r} needs an "
                    f"initializer (the width travels with the intrinsics, "
                    f"not with {var_type})",
                )
            else:
                dtype = self.dtype
                init = lambda st: VecValue.zero(lanes, dtype=dtype)  # noqa: E731
        elif var_type.is_predicate:
            init = _raiser(
                CompileError,
                f"declaration of predicate {name!r} needs an initializer "
                f"(predicate widths travel with the intrinsics)",
            )
        elif var_type.is_pointer:
            init = lambda st: _NULL  # noqa: E731
        else:
            init = lambda st: 0  # noqa: E731
        coerce = self.coercion(var_type)

        def run_decl(st: _Run):
            st.scope[name] = coerce(init(st))
            st.left -= 1
            st.counts["decl"] += 1
            if st.left < 0:
                _over_budget(st)
        return run_decl

    def for_loop(self, node: ast.ForLoop) -> StmtFn:
        init = self.stmt(node.init) if node.init is not None else None
        cond = self.expr(node.cond) if node.cond is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)

        def run_for(st: _Run):
            if init is not None:
                signal = init(st)
                if signal.__class__ is _Signal:
                    return signal
            while True:
                if cond is not None:
                    st.left -= 1
                    st.counts["branch"] += 1
                    if st.left < 0:
                        _over_budget(st)
                    if not _truth(cond(st)):
                        return None
                signal = body(st)
                if signal.__class__ is _Signal:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal
                st.counts["loop_iteration"] += 1
                if step is not None:
                    step(st)
        return run_for

    def while_loop(self, node: ast.WhileLoop) -> StmtFn:
        cond, body = self.expr(node.cond), self.stmt(node.body)

        def run_while(st: _Run):
            while True:
                st.left -= 1
                st.counts["branch"] += 1
                if st.left < 0:
                    _over_budget(st)
                if not _truth(cond(st)):
                    return None
                signal = body(st)
                if signal.__class__ is _Signal:
                    if signal is _BREAK:
                        return None
                    if signal is _CONTINUE:
                        continue
                    return signal
                st.counts["loop_iteration"] += 1
        return run_while

    def do_while_loop(self, node: ast.DoWhileLoop) -> StmtFn:
        body, cond = self.stmt(node.body), self.expr(node.cond)

        def run_do_while(st: _Run):
            while True:
                signal = body(st)
                if signal.__class__ is _Signal:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal
                st.counts["loop_iteration"] += 1
                st.left -= 1
                st.counts["branch"] += 1
                if st.left < 0:
                    _over_budget(st)
                if not _truth(cond(st)):
                    return None
        return run_do_while

    # -- expressions --------------------------------------------------------

    def expr(self, node: ast.Expr) -> ExprFn:
        method = _EXPR_COMPILERS.get(node.__class__)
        if method is None:
            return _raiser(InterpreterError, f"cannot evaluate expression {type(node).__name__}")
        return method(self, node)

    def constant(self, node: ast.Expr) -> int | None:
        """The wrapped value of an int literal, which its parent reads in place."""
        if isinstance(node, ast.IntLiteral) and node.value.__class__ is int:
            return self.wrap(node.value)
        return None

    def literal(self, node: ast.IntLiteral) -> ExprFn:
        raw, wrap = node.value, self.wrap
        if raw.__class__ is int:
            value = wrap(raw)
            return lambda st: value
        return lambda st: wrap(raw)

    def identifier(self, node: ast.Identifier) -> ExprFn:
        return partial(_read, node.name)

    def operands(self, left: ast.Expr, right: ast.Expr) -> Callable[[_Run], tuple[Value, Value]]:
        """Evaluate ``left`` then ``right``, reading leaf operands in place.

        An identifier on the left is read without a closure, and so is an
        identifier on its right; a literal on its right is its constant.
        In-place reads take the ``scalar_read`` steps :func:`_read` takes
        and run when every name they read is declared and the budget covers
        their steps; otherwise :func:`_read` reads each name and raises
        what it raises.
        """
        if isinstance(left, ast.Identifier):
            if isinstance(right, ast.Identifier):
                return _read_names(left.name, right.name)
            constant = self.constant(right)
            return _read_name(left.name, constant, self.expr(right) if constant is None else None)
        left_of, right_of = self.expr(left), self.expr(right)
        return lambda st: (left_of(st), right_of(st))

    def array_load(self, node: ast.ArrayRef) -> ExprFn:
        element = self.operands(node.base, node.index)

        def load_element(st: _Run):
            pointer, index = element(st)
            if index.__class__ is not int or pointer.__class__ is not Pointer:
                pointer, index = _subscript(pointer, index)
            offset = pointer.offset + index
            region = st.regions.get(pointer.region)
            if region is not None and 0 <= offset < region.size:
                value = region.data[offset]
            else:
                value = st.memory.load(pointer.region, offset)[0]
            st.left -= 1
            st.counts["scalar_load"] += 1
            if st.left < 0:
                _over_budget(st)
            return value
        return load_element

    def address(self, node: ast.Expr) -> Callable[[_Run], tuple[str, int]]:
        """A pointer-valued expression as ``(region, offset)``.

        ``&base[index]``, under any pointer casts, is read without building
        the :class:`Pointer` it evaluates to.
        """
        inner = node
        while isinstance(inner, ast.Cast) and inner.target_type.is_pointer:
            inner = inner.operand
        if isinstance(inner, ast.UnaryOp) and inner.op == "&" and isinstance(inner.operand, ast.ArrayRef):
            element = self.operands(inner.operand.base, inner.operand.index)

            def element_address(st: _Run):
                pointer, index = element(st)
                if index.__class__ is not int or pointer.__class__ is not Pointer:
                    pointer, index = _subscript(pointer, index)
                return pointer.region, pointer.offset + index
            return element_address
        pointer_of = self.expr(node)

        def pointer_address(st: _Run):
            pointer = pointer_of(st)
            if pointer.__class__ is not Pointer:
                raise InterpreterError("intrinsic memory operand is not a pointer")
            return pointer.region, pointer.offset
        return pointer_address

    def ternary(self, node: ast.TernaryOp) -> ExprFn:
        cond, then, otherwise = self.expr(node.cond), self.expr(node.then), self.expr(node.otherwise)

        def choose(st: _Run):
            st.left -= 1
            st.counts["branch"] += 1
            if st.left < 0:
                _over_budget(st)
            if _truth(cond(st)):
                return then(st)
            return otherwise(st)
        return choose

    def arithmetic(self, op: str) -> Callable[[_Run, int, int], int]:
        """``lhs op rhs`` on ints at the kernel dtype.  A zero divisor of
        ``/`` or ``%`` logs a UB event; an unknown operator raises when reached."""
        pure, wrap = self.ops.get(op), self.wrap
        if pure is not None:
            return pure
        if op == "/":
            def divide(st: _Run, lhs: int, rhs: int) -> int:
                if rhs == 0:
                    st.memory.ub_events.append(UBEvent("div-by-zero", "<scalar>", 0, "division by zero"))
                    return 0
                return wrap(trunc_div(lhs, rhs))
            return divide
        if op == "%":
            def modulo(st: _Run, lhs: int, rhs: int) -> int:
                if rhs == 0:
                    st.memory.ub_events.append(UBEvent("div-by-zero", "<scalar>", 0, "modulo by zero"))
                    return 0
                return wrap(lhs - trunc_div(lhs, rhs) * rhs)
            return modulo
        return _raiser(InterpreterError, f"unsupported binary operator {op!r}")

    def binop(self, node: ast.BinOp) -> ExprFn:
        op, category, wrap = node.op, _category(node.op), self.wrap
        if op in ("&&", "||"):
            left, right = self.expr(node.left), self.expr(node.right)
            conjunction = op == "&&"

            def logical(st: _Run):
                st.left -= 1
                st.counts["scalar_arith"] += 1
                if st.left < 0:
                    _over_budget(st)
                if conjunction:
                    return 1 if _truth(left(st)) and _truth(right(st)) else 0
                return 1 if _truth(left(st)) or _truth(right(st)) else 0
            return logical
        pair, apply = self.operands(node.left, node.right), self.arithmetic(op)

        def arith(st: _Run):
            lhs, rhs = pair(st)
            if lhs.__class__ is not int or rhs.__class__ is not int:
                if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
                    return _pointer_arith(op, lhs, rhs, wrap)
                lhs, rhs = _as_int(lhs), _as_int(rhs)
            st.left -= 1
            st.counts[category] += 1
            if st.left < 0:
                _over_budget(st)
            return apply(st, lhs, rhs)
        return arith

    def unary(self, node: ast.UnaryOp) -> ExprFn:
        op, operand = node.op, node.operand
        if op == "&":
            if isinstance(operand, ast.ArrayRef):
                address_of = self.address(node)
                return lambda st: Pointer(*address_of(st))
            if isinstance(operand, ast.Identifier):
                load = self.identifier(operand)

                def address_of_name(st: _Run):
                    value = load(st)
                    if isinstance(value, Pointer):
                        return value
                    raise InterpreterError("address-of scalar variables is not supported")
                return address_of_name
            return _raiser(InterpreterError, "unsupported address-of operand")
        if op == "*":
            return self.dereference(node)
        if op in ("++", "--"):
            return self.increment(operand, 1 if op == "++" else -1, return_new=True)
        value_of, wrap = self.expr(operand), self.wrap
        fn = {
            "-": lambda value: wrap(-value),
            "+": lambda value: value,
            "!": lambda value: 0 if value else 1,
            "~": lambda value: wrap(~value),
        }.get(op)

        def apply(st: _Run):
            value = _as_int(value_of(st))
            st.left -= 1
            st.counts["scalar_arith"] += 1
            if st.left < 0:
                _over_budget(st)
            if fn is None:
                raise InterpreterError(f"unsupported unary operator {op!r}")
            return fn(value)
        return apply

    def dereference(self, node: ast.UnaryOp) -> ExprFn:
        pointer_of = self.expr(node.operand)

        def load_through(st: _Run):
            pointer = pointer_of(st)
            if isinstance(pointer, Pointer):
                value = st.memory.load(pointer.region, pointer.offset)[0]
                st.left -= 1
                st.counts["scalar_load"] += 1
                if st.left < 0:
                    _over_budget(st)
                return value
            raise InterpreterError("dereference of a non-pointer value")
        return load_through

    def postfix(self, node: ast.PostfixOp) -> ExprFn:
        return self.increment(node.operand, 1 if node.op == "++" else -1, return_new=False)

    def increment(self, target: ast.Expr, delta: int, return_new: bool) -> ExprFn:
        read, write, wrap = self.lvalue_reader(target), self.lvalue_writer(target), self.wrap
        name = target.name if isinstance(target, ast.Identifier) else None
        sign, mask = self.sign, self.mask

        def step(st: _Run):
            if name is not None:
                # A declared int variable: its read, write and add in place.
                scope = st.scope
                if name in scope and st.left > 2:
                    old = scope[name]
                    if old.__class__ is int:
                        new = scope[name] = ((old + delta + sign) & mask) - sign
                        st.left -= 3
                        counts = st.counts
                        counts["scalar_read"] += 0
                        counts["scalar_write"] += 0
                        counts["scalar_arith"] += 1
                        return new if return_new else old
            value = read(st)
            if isinstance(value, Pointer):
                # ``p++`` moves a pointer as ``p += 1`` does: its read and
                # write steps, and no arithmetic step.
                moved = value.advanced(delta)
                write(st, moved)
                return moved if return_new else value
            old = _as_int(value)
            new = wrap(old + delta)
            write(st, new)
            st.left -= 1
            st.counts["scalar_arith"] += 1
            if st.left < 0:
                _over_budget(st)
            return new if return_new else old
        return step

    def assign(self, node: ast.Assign) -> ExprFn:
        target, write = node.target, self.lvalue_writer(node.target)
        if node.op == "=":
            value_of = self.expr(node.value)

            def store(st: _Run):
                value = value_of(st)
                write(st, value)
                return value
            return store
        # Compound assignment: target op= value.
        base_op = node.op[:-1]
        category, wrap, apply = _category(base_op), self.wrap, self.arithmetic(base_op)
        if isinstance(target, ast.Identifier):
            pair = self.operands(target, node.value)
        else:
            read, value_of = self.lvalue_reader(target), self.expr(node.value)
            pair = lambda st: (read(st), value_of(st))  # noqa: E731

        def update(st: _Run):
            current, rhs = pair(st)
            if isinstance(current, Pointer):
                result: Value = _pointer_arith(base_op, current, rhs, wrap)
            else:
                st.left -= 1
                st.counts[category] += 1
                if st.left < 0:
                    _over_budget(st)
                result = apply(st, _as_int(current), _as_int(rhs))
            write(st, result)
            return result
        return update

    def lvalue_reader(self, target: ast.Expr) -> ExprFn:
        if isinstance(target, ast.Identifier):
            return self.identifier(target)
        if isinstance(target, ast.ArrayRef):
            return self.array_load(target)
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            return self.expr(target)
        return _raiser(InterpreterError, f"unsupported lvalue {type(target).__name__}")

    def lvalue_writer(self, target: ast.Expr) -> Callable[[_Run, Value], None]:
        sign, mask, wrap = self.sign, self.mask, self.wrap
        if isinstance(target, ast.Identifier):
            name = target.name

            def write_name(st: _Run, value: Value) -> None:
                scope = st.scope
                if name not in scope:
                    raise CompileError(f"assignment to undeclared identifier {name!r}")
                existing = scope[name]
                if existing.__class__ is int and value.__class__ is int:
                    scope[name] = ((value + sign) & mask) - sign
                elif isinstance(existing, (VecValue, PredValue)) or isinstance(
                    value, (VecValue, PredValue)
                ):
                    scope[name] = value
                elif isinstance(existing, Pointer) or isinstance(value, Pointer):
                    scope[name] = value
                else:
                    scope[name] = wrap(_as_int(value))
                st.left -= 1
                st.counts["scalar_write"] += 0
                if st.left < 0:
                    _over_budget(st)
            return write_name
        if isinstance(target, ast.ArrayRef):
            element = self.operands(target.base, target.index)

            def write_element(st: _Run, value: Value) -> None:
                pointer, index = element(st)
                if index.__class__ is not int or pointer.__class__ is not Pointer:
                    pointer, index = _subscript(pointer, index)
                offset = pointer.offset + index
                region = st.regions.get(pointer.region)
                if region is not None and 0 <= offset < region.size and value.__class__ is int:
                    region.data[offset] = ((value + sign) & mask) - sign
                    region.poison[offset] = False
                else:
                    st.memory.store(pointer.region, offset, _as_int(value))
                st.left -= 1
                st.counts["scalar_store"] += 1
                if st.left < 0:
                    _over_budget(st)
            return write_element
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer_of = self.expr(target.operand)

            def write_through(st: _Run, value: Value) -> None:
                pointer = pointer_of(st)
                if not isinstance(pointer, Pointer):
                    raise InterpreterError("store through a non-pointer value")
                st.memory.store(pointer.region, pointer.offset, _as_int(value))
                st.left -= 1
                st.counts["scalar_store"] += 1
                if st.left < 0:
                    _over_budget(st)
            return write_through
        return _raiser(InterpreterError, f"unsupported assignment target {type(target).__name__}")

    def cast(self, node: ast.Cast) -> ExprFn:
        value_of, coerce = self.expr(node.operand), self.coercion(node.target_type)
        return lambda st: coerce(value_of(st))

    def coercion(self, target_type) -> Callable[[Value], Value]:
        """The conversion of a value to ``target_type`` (assignment and casts)."""
        if target_type.is_pointer:
            def to_pointer(value: Value) -> Value:
                if isinstance(value, Pointer):
                    return value
                if isinstance(value, int) and value == 0:
                    return _NULL
                raise InterpreterError(f"cannot cast {type(value).__name__} to pointer type")
            return to_pointer
        if target_type.is_vector:
            def to_vector(value: Value) -> Value:
                if isinstance(value, VecValue):
                    return value
                raise InterpreterError(f"cannot cast a scalar to {target_type}")
            return to_vector
        if target_type.is_predicate:
            def to_predicate(value: Value) -> Value:
                if isinstance(value, PredValue):
                    return value
                raise InterpreterError(f"cannot cast a non-predicate to {target_type}")
            return to_predicate
        wrap = self.wrap

        def to_scalar(value: Value) -> Value:
            if isinstance(value, int):
                return wrap(value)
            if isinstance(value, Pointer):
                raise InterpreterError("cannot cast a pointer to int in this subset")
            raise InterpreterError(f"cannot coerce {type(value).__name__} to {target_type}")
        return to_scalar

    # -- calls --------------------------------------------------------------

    def call(self, node: ast.Call) -> ExprFn:
        name = node.func
        if name in ("abs", "labs", "min", "max"):
            return self.builtin(name, [self.expr(arg) for arg in node.args])
        if not is_intrinsic(name):
            return _raiser(CompileError, f"call to unknown function or intrinsic {name!r}")
        spec = lookup_intrinsic(name, self.dtype)
        if len(node.args) != spec.arity and spec.kind not in ("setr", "set"):
            return _raiser(
                CompileError, f"intrinsic {name} expects {spec.arity} arguments, got {len(node.args)}"
            )
        run = _INTRINSIC_COMPILERS.get(spec.kind, _pure_intrinsic)(self, spec, node.args)
        kind = f"vec_{spec.kind}"

        def call_intrinsic(st: _Run):
            counts = st.counts
            counts[kind] += 1
            counts["vector_op"] += 1
            st.left -= 1
            counts["vector_instr"] += 1
            if st.left < 0:
                _over_budget(st)
            return run(st)
        return call_intrinsic

    def builtin(self, name: str, args: list[ExprFn]) -> ExprFn:
        """The scalar ``abs``/``labs`` (one argument) and ``min``/``max`` (two)."""
        arity = 1 if name in ("abs", "labs") else 2
        if len(args) != arity:
            plural = "argument" if arity == 1 else "arguments"
            return _raiser(CompileError, f"{name} expects {arity} {plural}, got {len(args)}")
        if arity == 1:
            (value_of,), wrap = args, self.wrap

            def absolute(st: _Run):
                value = _as_int(value_of(st))
                st.left -= 1
                st.counts["scalar_arith"] += 1
                if st.left < 0:
                    _over_budget(st)
                return wrap(abs(value))
            return absolute
        left, right = args
        pick = min if name == "min" else max

        def extreme(st: _Run):
            lhs = _as_int(left(st))
            rhs = _as_int(right(st))
            st.left -= 1
            st.counts["scalar_arith"] += 1
            if st.left < 0:
                _over_budget(st)
            return pick(lhs, rhs)
        return extreme


# -- operand pairs (see _Compiler.operands) ---------------------------------


def _read_names(name: str, other: str) -> Callable[[_Run], tuple[Value, Value]]:
    def read_names(st: _Run):
        scope = st.scope
        if name in scope and other in scope and st.left > 1:
            st.left -= 2
            st.counts["scalar_read"] += 0
            return scope[name], scope[other]
        return _read(name, st), _read(other, st)
    return read_names


def _read_name(name: str, constant: int | None,
               right_of: ExprFn | None) -> Callable[[_Run], tuple[Value, Value]]:
    def read_name(st: _Run):
        scope = st.scope
        if name in scope and st.left > 0:
            st.left -= 1
            st.counts["scalar_read"] += 0
            return scope[name], constant if right_of is None else right_of(st)
        return _read(name, st), constant if right_of is None else right_of(st)
    return read_name


# -- intrinsic operands ------------------------------------------------------


def _vector_operand(arg: ExprFn, lanes: int) -> Callable[[_Run], VecValue]:
    def operand(st: _Run) -> VecValue:
        value = arg(st)
        if not isinstance(value, VecValue):
            raise InterpreterError("intrinsic vector operand is not a vector value")
        if value.width != lanes:
            raise InterpreterError(
                f"intrinsic vector operand has {value.width} lanes, expected {lanes}"
            )
        return value
    return operand


def _pred_operand(arg: ExprFn, lanes: int) -> Callable[[_Run], PredValue]:
    def operand(st: _Run) -> PredValue:
        value = arg(st)
        if not isinstance(value, PredValue):
            raise InterpreterError("intrinsic predicate operand is not a predicate value")
        if value.width != lanes:
            raise InterpreterError(
                f"intrinsic predicate operand has {value.width} lanes, expected {lanes}"
            )
        return value
    return operand


# -- intrinsic bodies (after the call's step), one compiler per spec kind -----
#
# Memory holds values wrapped at the kernel dtype, so a whole register of
# that dtype inside an array's declared extent is sliced in and out (a
# store only when no lane is poison); other accesses go through Memory.


def _load_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    address_of, lanes, dtype = compiler.address(args[0]), spec.lanes, spec.lane_type
    sliced = dtype is compiler.dtype

    def load(st: _Run):
        name, offset = address_of(st)
        region = st.regions.get(name)
        if sliced and region is not None and 0 <= offset <= region.size - lanes:
            end = offset + lanes
            return VecValue(tuple(region.data[offset:end]), tuple(region.poison[offset:end]), dtype)
        values, poison = st.memory.load_vector(name, offset, lanes)
        return VecValue.from_lanes(values, poison, dtype=dtype)
    return load


def _maskload_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    address_of = compiler.address(args[0])
    mask_of = _vector_operand(compiler.expr(args[1]), spec.lanes)
    lanes, dtype = spec.lanes, spec.lane_type

    def maskload(st: _Run):
        name, offset = address_of(st)
        mask = mask_of(st)
        values: list[int] = []
        poison: list[bool] = []
        for lane in range(lanes):
            if lane_active(mask.lanes[lane], dtype):
                value, is_poison = st.memory.load(name, offset + lane)
                values.append(value)
                poison.append(is_poison)
            else:
                values.append(0)
                poison.append(False)
        return VecValue.from_lanes(values, poison, dtype=dtype)
    return maskload


def _store_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    address_of, lanes, dtype = compiler.address(args[0]), spec.lanes, compiler.dtype
    vector_of, clean = _vector_operand(compiler.expr(args[1]), lanes), [False] * lanes

    def store(st: _Run):
        name, offset = address_of(st)
        vector = vector_of(st)
        region = st.regions.get(name)
        if (region is not None and 0 <= offset <= region.size - lanes
                and vector.dtype is dtype and True not in vector.poison):
            region.data[offset:offset + lanes] = vector.lanes
            region.poison[offset:offset + lanes] = clean
        else:
            st.memory.store_vector(name, offset, list(vector.lanes), list(vector.poison))
        return vector
    return store


def _maskstore_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    address_of, lanes, dtype = compiler.address(args[0]), spec.lanes, spec.lane_type
    mask_of = _vector_operand(compiler.expr(args[1]), lanes)
    vector_of = _vector_operand(compiler.expr(args[2]), lanes)

    def maskstore(st: _Run):
        name, offset = address_of(st)
        mask = mask_of(st)
        vector = vector_of(st)
        for lane in range(lanes):
            if lane_active(mask.lanes[lane], dtype):
                st.memory.store(name, offset + lane, vector.lanes[lane], vector.poison[lane])
        return vector
    return maskstore


def _pload_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    # Predicate-governed load: active lanes read memory (recording OOB/poison
    # like any load), inactive lanes come back zero and — the property the
    # predicated-loop legalization rests on — never touch memory at all.  A
    # poison predicate lane makes the loaded lane unreliable rather than the
    # access itself.
    pred_of = _pred_operand(compiler.expr(args[0]), spec.lanes)
    address_of, lanes, dtype = compiler.address(args[1]), spec.lanes, spec.lane_type

    def pload(st: _Run):
        pred = pred_of(st)
        name, offset = address_of(st)
        values, poison = [], []
        for lane in range(lanes):
            if pred.lanes[lane]:
                value, is_poison = st.memory.load(name, offset + lane)
                values.append(value)
                poison.append(is_poison or pred.poison[lane])
            else:
                values.append(0)
                poison.append(pred.poison[lane])
        return VecValue.from_lanes(values, poison, dtype=dtype)
    return pload


def _pstore_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    # Mirror image: active lanes store, inactive lanes leave memory untouched;
    # storing under a poison predicate lane stores poison (the checker
    # observes it as a poison-store UB event).
    pred_of = _pred_operand(compiler.expr(args[0]), spec.lanes)
    address_of, lanes = compiler.address(args[1]), spec.lanes
    vector_of = _vector_operand(compiler.expr(args[2]), lanes)

    def pstore(st: _Run):
        pred = pred_of(st)
        name, offset = address_of(st)
        vector = vector_of(st)
        for lane in range(lanes):
            if pred.lanes[lane]:
                st.memory.store(
                    name, offset + lane, vector.lanes[lane],
                    vector.poison[lane] or pred.poison[lane],
                )
        return vector
    return pstore


def _extract_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    vector_of, lane_of = _vector_operand(compiler.expr(args[0]), spec.lanes), compiler.expr(args[1])
    lanes = spec.lanes

    def extract(st: _Run):
        vector = vector_of(st)
        return vector.lanes[_as_int(lane_of(st)) % lanes]
    return extract


def _cast_low_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    # The cast reinterprets the low register half: truncate to half the lanes
    # so narrower downstream consumers see a width-correct value (the
    # historical AVX2 reduction-tail idiom).
    vector_of, half = _vector_operand(compiler.expr(args[0]), spec.lanes), spec.lanes // 2

    def cast_low(st: _Run):
        vector = vector_of(st)
        return VecValue(vector.lanes[:half], vector.poison[:half], vector.dtype)
    return cast_low


def _pure_binary_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    # Two registers of the spec's width and dtype go straight to lanemath,
    # as ``VecValue.bulk_binary`` sends them; anything else takes
    # ``apply_pure_spec``, which raises for a bad operand.
    left, right = compiler.expr(args[0]), compiler.expr(args[1])
    op, lanes, dtype = spec.op, spec.lanes, spec.lane_type

    def pure_binary(st: _Run):
        a, b = left(st), right(st)
        if (a.__class__ is VecValue and b.__class__ is VecValue and a.dtype is dtype
                and b.dtype is dtype and len(a.lanes) == lanes == len(b.lanes)):
            return VecValue(*binary_lanes(op, a.lanes, b.lanes, a.poison, b.poison, dtype), dtype)
        return apply_pure_spec(spec, [a, b])
    return pure_binary


def _pure_intrinsic(compiler: _Compiler, spec, args: list[ast.Expr]) -> ExprFn:
    operands = tuple(compiler.expr(arg) for arg in args)
    return lambda st: apply_pure_spec(spec, [operand(st) for operand in operands])


#: Intrinsic kinds compiled to their own bodies: the interpreter owns the
#: memory model, and the commonest pure kind skips ``apply_pure_spec``'s
#: dispatch.  Every other kind is a pure function of its operands.
_INTRINSIC_COMPILERS = {
    "load": _load_intrinsic,
    "maskload": _maskload_intrinsic,
    "store": _store_intrinsic,
    "maskstore": _maskstore_intrinsic,
    "pload": _pload_intrinsic,
    "pstore": _pstore_intrinsic,
    "extract": _extract_intrinsic,
    "cast_low": _cast_low_intrinsic,
    "pure_binary": _pure_binary_intrinsic,
}

#: Compile-time dispatch on the concrete node class.
_STMT_COMPILERS = {
    ast.Block: _Compiler.block,
    ast.Decl: _Compiler.decl,
    ast.ExprStmt: _Compiler.expr_stmt,
    ast.If: _Compiler.if_stmt,
    ast.ForLoop: _Compiler.for_loop,
    ast.WhileLoop: _Compiler.while_loop,
    ast.DoWhileLoop: _Compiler.do_while_loop,
    ast.Return: _Compiler.return_stmt,
    ast.Break: _Compiler.break_stmt,
    ast.Continue: _Compiler.continue_stmt,
    ast.Goto: _Compiler.goto_stmt,
    ast.Label: _Compiler.label_stmt,
}

_EXPR_COMPILERS = {
    ast.IntLiteral: _Compiler.literal,
    ast.Identifier: _Compiler.identifier,
    ast.ArrayRef: _Compiler.array_load,
    ast.BinOp: _Compiler.binop,
    ast.UnaryOp: _Compiler.unary,
    ast.PostfixOp: _Compiler.postfix,
    ast.TernaryOp: _Compiler.ternary,
    ast.Assign: _Compiler.assign,
    ast.Cast: _Compiler.cast,
    ast.Call: _Compiler.call,
}


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Program:
    """A compiled function: its parameters and its body closure."""

    params: tuple[tuple[str, bool], ...]
    body: StmtFn
    wrap: Callable[[int], int]


def _compile(func: ast.FunctionDef, dtype: LaneType) -> _Program:
    return _Program(
        params=tuple((param.name, param.param_type.is_pointer) for param in func.params),
        body=_Compiler(dtype).stmt(func.body),
        wrap=dtype.wrap,
    )


#: Compiled programs keyed by the shared AST (one parse per text), so an AST
#: must not be mutated once it has run.  Compiling is cheap next to a
#: checksum run; the small bound keeps the closures of kernels long
#: finished from piling up.
_PROGRAMS = IdentityMemo(16)


def run_function(
    func: ast.FunctionDef,
    arrays: Mapping[str, Sequence[int]],
    scalars: Mapping[str, int],
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Execute ``func`` with the given array contents and scalar arguments.

    ``arrays`` maps pointer-parameter names to initial contents; each is
    copied into an isolated memory region (plus guard zone) on every run,
    without a scan when it is an :class:`~repro.interp.memory.ArrayImage`.
    ``scalars`` maps value parameters such as ``n``.
    """
    dtype = ast.kernel_dtype(func)
    memory = Memory(dtype=dtype)
    for name, values in arrays.items():
        memory.allocate(name, len(values), values)
    program: _Program = _PROGRAMS.get_or_compute(func, lambda: _compile(func, dtype))
    scope: dict[str, Value] = {}
    for name, is_pointer in program.params:
        if is_pointer:
            if not memory.has_region(name):
                raise CompileError(f"no array provided for pointer parameter {name!r}")
            scope[name] = Pointer(name, 0)
        else:
            if name not in scalars:
                raise CompileError(f"no value provided for scalar parameter {name!r}")
            scope[name] = program.wrap(int(scalars[name]))
    st = _Run(scope, memory, max_steps)
    signal = program.body(st)
    if signal is _BREAK:
        raise _BreakSignal()
    if signal is _CONTINUE:
        raise _ContinueSignal()
    if signal.__class__ is _Signal and signal is not _RETURN:
        raise InterpreterError(f"goto to unknown label {signal.label!r}")
    return ExecutionResult(
        memory=memory,
        return_value=st.ret,
        op_counts=Counter(st.counts),
        steps=max_steps - st.left,
    )
