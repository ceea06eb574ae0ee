"""Symbolic execution of the C subset over bitvector terms.

The executor runs a kernel with

* a *concrete* trip count (loops are fully unrolled, the "bounded" part of
  bounded translation validation),
* *symbolic* array contents (each cell of each pointer parameter starts as a
  fresh bitvector variable ``<array>_<index>``),
* concrete values for the remaining scalar parameters, and
* per-parameter disjoint memory regions (the paper's non-aliasing setup).

Data-dependent control flow is handled by executing both branches and merging
states with ``ite`` terms, so no path explosion occurs; loops whose condition
does not fold to a constant (data-dependent trip counts, early exits) raise
:class:`SymbolicExecutionError`, which the verifier reports as Inconclusive —
the same bucket the paper uses for queries Alive2 cannot encode.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.cfront import ast_nodes as ast
from repro.intrinsics.lanemath import lane_active, whilelt_lanes
from repro.intrinsics.registry import is_intrinsic, lookup_intrinsic
from repro.intrinsics.values import ALL_VALID_WIDTHS
from repro.lanetypes import INT32, LaneType
from repro.memo import Memo
from repro.smt.terms import (Term, TermKind, active_bits, bv_const, bv_var,
                             mk, modeled_bits, poison, to_signed)

# 0 and 1 are the same constants at every modeled width; -1 is not, so it
# is built where it is used, at the active width.
ZERO = bv_const(0)
ONE = bv_const(1)


class SymbolicExecutionError(Exception):
    """The program cannot be executed symbolically (reported as Inconclusive)."""


@dataclass(frozen=True)
class SymPointer:
    """A pointer value: region name plus a concrete element offset."""

    region: str
    offset: int = 0

    def advanced(self, delta: int) -> "SymPointer":
        return SymPointer(self.region, self.offset + delta)


@dataclass
class SymVector:
    """A symbolic SIMD register: one bitvector term per lane.

    Lane terms are modelled at the kernel's element width (the
    :func:`~repro.smt.terms.modeled_bits` context active during execution);
    the register's lane *count* is all that is checked here.
    """

    lanes: list[Term]

    def __post_init__(self) -> None:
        if len(self.lanes) not in ALL_VALID_WIDTHS:
            raise SymbolicExecutionError(
                f"vector width {len(self.lanes)} is not one of {ALL_VALID_WIDTHS}"
            )

    @property
    def width(self) -> int:
        return len(self.lanes)


@dataclass
class SymPred:
    """A symbolic predicate register: one 0/1 bitvector term per lane.

    Every lane term is kept in boolean form (the constant 0 or 1, or an
    ``ite``/logical combination of such), so predicate logic composes with
    plain bitvector AND/OR and a lane is "active" exactly when its term is
    nonzero.
    """

    lanes: list[Term]

    def __post_init__(self) -> None:
        if len(self.lanes) not in ALL_VALID_WIDTHS:
            raise SymbolicExecutionError(
                f"predicate width {len(self.lanes)} is not one of {ALL_VALID_WIDTHS}"
            )

    @property
    def width(self) -> int:
        return len(self.lanes)


SymValue = Term | SymPointer | SymVector | SymPred


@dataclass
class SymRegion:
    """One array region with symbolic cells and an out-of-bounds log."""

    name: str
    size: int
    cells: dict[int, Term] = field(default_factory=dict)

    def cell(self, index: int) -> Term:
        if index not in self.cells:
            self.cells[index] = bv_var(f"{self.name}_{index}")
        return self.cells[index]


@dataclass
class SymbolicState:
    """Memory + scalar environment of a symbolic execution."""

    regions: dict[str, SymRegion] = field(default_factory=dict)
    scalars: dict[str, SymValue] = field(default_factory=dict)
    ub_events: list[str] = field(default_factory=list)

    def clone(self) -> "SymbolicState":
        new = SymbolicState()
        new.regions = {name: SymRegion(r.name, r.size, dict(r.cells)) for name, r in self.regions.items()}
        new.scalars = dict(self.scalars)
        new.ub_events = list(self.ub_events)
        return new

    # -- memory -------------------------------------------------------------------

    def load(self, region_name: str, index: int) -> Term:
        region = self.regions.get(region_name)
        if region is None:
            raise SymbolicExecutionError(f"load from unknown region {region_name!r}")
        if index < 0 or index >= region.size:
            self.ub_events.append(f"out-of-bounds read {region_name}[{index}]")
            return poison(f"oob:{region_name}[{index}]")
        return region.cell(index)

    def store(self, region_name: str, index: int, value: Term) -> None:
        region = self.regions.get(region_name)
        if region is None:
            raise SymbolicExecutionError(f"store to unknown region {region_name!r}")
        if index < 0 or index >= region.size:
            self.ub_events.append(f"out-of-bounds write {region_name}[{index}]")
            return
        if value.kind is TermKind.POISON:
            self.ub_events.append(f"poison stored to {region_name}[{index}]")
        region.cells[index] = value


def _as_concrete(value: SymValue, what: str) -> int:
    if isinstance(value, Term) and value.kind is TermKind.CONST:
        return to_signed(value.value, active_bits())
    raise SymbolicExecutionError(f"{what} is not a compile-time constant during symbolic execution")


# ---------------------------------------------------------------------------
# per-lane terms: the verifier's semantics of each generic lane op
# ---------------------------------------------------------------------------
#
# Each builds one lane's term at the active modeled width, so callers run it
# inside ``modeled_bits``.  The tests check the concrete evaluator,
# :mod:`repro.intrinsics.lanemath`, against these functions.

#: Generic op -> term kind, shared by every target's intrinsic spelling.
_LANE_BINARY = {
    "add": TermKind.ADD,
    "sub": TermKind.SUB,
    "mul": TermKind.MUL,
    "and": TermKind.AND,
    "or": TermKind.OR,
    "xor": TermKind.XOR,
    "max": TermKind.MAX,
    "min": TermKind.MIN,
}

_SHIFT_KINDS = {"sll": TermKind.SHL, "srl": TermKind.LSHR, "sra": TermKind.ASHR}

#: Term kinds that keep a lane a full-lane mask when every operand is one.
_MASK_LOGIC = (TermKind.AND, TermKind.OR, TermKind.XOR, TermKind.NOT)

#: (modeled width, term) -> whether the term is provably 0 or all-ones.
_FULL_LANE_MASKS = Memo(200_000)


def lane_binary_term(op: str, a: Term, b: Term) -> Term:
    kind = _LANE_BINARY.get(op)
    if kind is not None:
        return mk(kind, a, b)
    if op in ("cmpgt", "cmpeq"):
        compared = mk(TermKind.GT if op == "cmpgt" else TermKind.EQ, a, b)
        return mk(TermKind.ITE, compared, bv_const(-1), ZERO)
    if op == "andnot":
        return mk(TermKind.AND, mk(TermKind.NOT, a), b)
    raise SymbolicExecutionError(f"lane operation {op} is not modelled")


def lane_unary_term(op: str, a: Term) -> Term:
    if op == "abs":
        return mk(TermKind.ABS, a)
    raise SymbolicExecutionError(f"lane operation {op} is not modelled")


def shift_lane_term(op: str, lane: Term, count: int) -> Term:
    """A shift by an immediate; over-shifts are defined as in lanemath."""
    bits = active_bits()
    if op in ("sll", "srl") and count >= bits:
        return ZERO
    if op == "sra" and count >= bits:
        count = bits - 1
    if count == 0:
        return lane
    kind = _SHIFT_KINDS.get(op)
    if kind is None:
        raise SymbolicExecutionError(f"immediate operation {op} is not modelled")
    return mk(kind, lane, bv_const(count))


def _is_full_lane_mask(term: Term) -> bool:
    """Whether ``term`` provably evaluates to 0 or all-ones at the active width.

    True for those two constants and for an ``ite`` (by its branches),
    ``and``, ``or``, ``xor`` or ``not`` built only from such terms.  The
    walk is iterative and memoized per DAG node, so a mask that doubles in
    size on every loop iteration costs time linear in its distinct nodes.
    """
    bits = active_bits()
    all_ones = (1 << bits) - 1
    memo = _FULL_LANE_MASKS
    # Evict before the walk, never during it: the walk reads back the
    # verdicts it stored for each node's operands.
    memo.make_room()
    stack = [term]
    while stack:
        node = stack.pop()
        if (bits, node) in memo:
            continue
        if node.kind is TermKind.ITE:
            operands = node.args[1:]
        elif node.kind in _MASK_LOGIC:
            operands = node.args
        else:
            memo[(bits, node)] = (node.kind is TermKind.CONST
                                  and node.value in (0, all_ones))
            continue
        pending = [arg for arg in operands if (bits, arg) not in memo]
        if pending:
            stack.append(node)
            stack.extend(pending)
        else:
            memo[(bits, node)] = all(memo[(bits, arg)] for arg in operands)
    return memo[(bits, term)]


def select_lane_term(a: Term, b: Term, mask: Term) -> Term:
    """One lane of a byte blend: ``b``'s byte wherever the sign bit of the
    mask's byte is set, ``a``'s byte elsewhere (as the interpreter does).

    A mask lane that is provably 0 or all-ones, as every TSVC vectorization
    builds, gets the whole-lane ``ite(mask != 0, b, a)``, which the mask
    algebra folds back into the comparison; any other mask is blended byte
    by byte.
    """
    if _is_full_lane_mask(mask):
        return mk(TermKind.ITE, mk(TermKind.NE, mask, ZERO), b, a)
    parts = []
    for shift in range(0, active_bits(), 8):
        byte = bv_const(0xFF << shift)
        picks_b = mk(TermKind.NE, mk(TermKind.AND, mask, bv_const(0x80 << shift)), ZERO)
        parts.append(mk(TermKind.ITE, picks_b, mk(TermKind.AND, b, byte), mk(TermKind.AND, a, byte)))
    blended = parts[0]
    for part in parts[1:]:
        blended = mk(TermKind.OR, blended, part)
    return blended


def pred_not_term(gov: Term, p: Term) -> Term:
    """Zeroing NOT: ``gov & !p``, on 0/1 lane terms."""
    return mk(TermKind.ITE, mk(TermKind.EQ, p, ZERO), gov, ZERO)


def pred_logic_term(op: str, gov: Term, a: Term, b: Term) -> Term:
    """Zeroing predicate ``and``/``or``, governed by ``gov``."""
    inner = {"and": TermKind.AND, "or": TermKind.OR}[op]
    return mk(TermKind.AND, gov, mk(inner, a, b))


def pred_cmp_term(op: str, gov: Term, a: Term, b: Term) -> Term:
    """A ``cmpgt``/``cmpeq`` predicate lane; inactive lanes are 0."""
    compared = mk(TermKind.GT if op == "cmpgt" else TermKind.EQ, a, b)
    return mk(TermKind.AND, gov, mk(TermKind.ITE, compared, ONE, ZERO))


def psel_term(pred: Term, a: Term, b: Term) -> Term:
    return mk(TermKind.ITE, mk(TermKind.NE, pred, ZERO), a, b)


def pred_merge_term(op: str, pred: Term, a: Term, b: Term) -> Term:
    """Merging predicated arithmetic: inactive lanes keep ``a``."""
    return mk(TermKind.ITE, mk(TermKind.NE, pred, ZERO),
              lane_binary_term(op, a, b), a)


class SymbolicExecutor:
    """Executes one function symbolically."""

    def __init__(self, func: ast.FunctionDef, state: SymbolicState, max_steps: int = 200_000,
                 dtype: LaneType = INT32):
        self.func = func
        self.state = state
        self.max_steps = max_steps
        self.steps = 0
        self.dtype = dtype

    # -- driver ---------------------------------------------------------------------

    def run(self) -> SymbolicState:
        with contextlib.suppress(_ReturnSignal):
            self._exec_block_like(self.func.body, self.state)
        return self.state

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise SymbolicExecutionError("symbolic execution step budget exceeded")

    # -- statements --------------------------------------------------------------------

    def _exec_block_like(self, stmt: ast.Stmt, state: SymbolicState) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self._exec_stmt(inner, state)
            return
        self._exec_stmt(stmt, state)

    def _exec_stmt(self, stmt: ast.Stmt, state: SymbolicState) -> None:
        self._tick()
        if isinstance(stmt, ast.Block):
            self._exec_block_like(stmt, state)
        elif isinstance(stmt, ast.Decl):
            self._exec_decl(stmt, state)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, state)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, state)
        elif isinstance(stmt, ast.ForLoop):
            self._exec_for(stmt, state)
        elif isinstance(stmt, ast.WhileLoop):
            self._exec_while(stmt, state)
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal()
        elif isinstance(stmt, ast.Label):
            self._exec_stmt(stmt.stmt, state)
        elif isinstance(stmt, (ast.Goto, ast.Break, ast.Continue, ast.DoWhileLoop)):
            raise SymbolicExecutionError(
                f"statement {type(stmt).__name__} is not supported by the symbolic executor"
            )
        else:
            raise SymbolicExecutionError(f"cannot execute {type(stmt).__name__} symbolically")

    def _exec_decl(self, decl: ast.Decl, state: SymbolicState) -> None:
        if decl.array_size is not None:
            size = _as_concrete(self._eval(decl.array_size, state), "local array size")
            state.regions[decl.name] = SymRegion(decl.name, size, {i: ZERO for i in range(size)})
            state.scalars[decl.name] = SymPointer(decl.name, 0)
            return
        if decl.init is not None:
            state.scalars[decl.name] = self._eval(decl.init, state)
        elif decl.var_type.is_vector:
            lanes = decl.var_type.vector_lanes
            if not lanes:
                raise SymbolicExecutionError(
                    f"declaration of scalable vector {decl.name!r} needs an "
                    "initializer (the width travels with the intrinsics)"
                )
            state.scalars[decl.name] = SymVector([ZERO] * lanes)
        elif decl.var_type.is_predicate:
            raise SymbolicExecutionError(
                f"declaration of predicate {decl.name!r} needs an initializer "
                "(predicate widths travel with the intrinsics)"
            )
        else:
            state.scalars[decl.name] = ZERO

    def _exec_if(self, stmt: ast.If, state: SymbolicState) -> None:
        cond = self._eval(stmt.cond, state)
        cond_term = self._as_bool_term(cond)
        if cond_term.kind is TermKind.CONST:
            if cond_term.value != 0:
                self._exec_block_like(stmt.then, state)
            elif stmt.otherwise is not None:
                self._exec_block_like(stmt.otherwise, state)
            return
        # Data-dependent branch: execute both sides and merge with ite.
        then_state = state.clone()
        else_state = state.clone()
        self._exec_block_like(stmt.then, then_state)
        if stmt.otherwise is not None:
            self._exec_block_like(stmt.otherwise, else_state)
        self._merge_into(state, cond_term, then_state, else_state)

    def _merge_into(self, state: SymbolicState, cond: Term,
                    then_state: SymbolicState, else_state: SymbolicState) -> None:
        for name, region in state.regions.items():
            then_region = then_state.regions[name]
            else_region = else_state.regions[name]
            indices = set(region.cells) | set(then_region.cells) | set(else_region.cells)
            for index in indices:
                then_val = then_region.cell(index) if 0 <= index < then_region.size else ZERO
                else_val = else_region.cell(index) if 0 <= index < else_region.size else ZERO
                if then_val != else_val:
                    region.cells[index] = mk(TermKind.ITE, cond, then_val, else_val)
                else:
                    region.cells[index] = then_val
        for name in set(then_state.scalars) | set(else_state.scalars):
            then_val = then_state.scalars.get(name)
            else_val = else_state.scalars.get(name)
            if then_val is None or else_val is None:
                state.scalars[name] = then_val if then_val is not None else else_val
                continue
            if isinstance(then_val, Term) and isinstance(else_val, Term):
                state.scalars[name] = (
                    then_val if then_val == else_val else mk(TermKind.ITE, cond, then_val, else_val)
                )
            elif isinstance(then_val, SymVector) and isinstance(else_val, SymVector):
                state.scalars[name] = SymVector(
                    [mk(TermKind.ITE, cond, t, e) if t != e else t
                     for t, e in zip(then_val.lanes, else_val.lanes)]
                )
            elif isinstance(then_val, SymPred) and isinstance(else_val, SymPred):
                state.scalars[name] = SymPred(
                    [mk(TermKind.ITE, cond, t, e) if t != e else t
                     for t, e in zip(then_val.lanes, else_val.lanes)]
                )
            else:
                state.scalars[name] = then_val
        # UB in either branch is conservatively kept: a branch that may execute
        # under some input and has UB makes the whole program have potential UB.
        merged_events = then_state.ub_events + [e for e in else_state.ub_events
                                                if e not in then_state.ub_events]
        state.ub_events = merged_events

    def _exec_for(self, loop: ast.ForLoop, state: SymbolicState) -> None:
        if loop.init is not None:
            self._exec_stmt(loop.init, state)
        iterations = 0
        while True:
            self._tick()
            if loop.cond is not None:
                cond = self._as_bool_term(self._eval(loop.cond, state))
                if cond.kind is not TermKind.CONST:
                    raise SymbolicExecutionError("loop bound does not fold to a constant")
                if cond.value == 0:
                    break
            self._exec_block_like(loop.body, state)
            if loop.step is not None:
                self._eval(loop.step, state)
            iterations += 1
            if iterations > 4096:
                raise SymbolicExecutionError("loop unrolling exceeded the iteration budget")

    def _exec_while(self, loop: ast.WhileLoop, state: SymbolicState) -> None:
        iterations = 0
        while True:
            self._tick()
            cond = self._as_bool_term(self._eval(loop.cond, state))
            if cond.kind is not TermKind.CONST:
                raise SymbolicExecutionError("while condition does not fold to a constant")
            if cond.value == 0:
                break
            self._exec_block_like(loop.body, state)
            iterations += 1
            if iterations > 4096:
                raise SymbolicExecutionError("loop unrolling exceeded the iteration budget")

    # -- expressions ----------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, state: SymbolicState) -> SymValue:
        self._tick()
        if isinstance(expr, ast.IntLiteral):
            return bv_const(expr.value)
        if isinstance(expr, ast.Identifier):
            if expr.name not in state.scalars:
                raise SymbolicExecutionError(f"use of undeclared identifier {expr.name!r}")
            return state.scalars[expr.name]
        if isinstance(expr, ast.ArrayRef):
            pointer, index = self._resolve(expr, state)
            return state.load(pointer.region, pointer.offset + index)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, state)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, state)
        if isinstance(expr, ast.PostfixOp):
            return self._apply_increment(expr.operand, 1 if expr.op == "++" else -1, state, return_new=False)
        if isinstance(expr, ast.TernaryOp):
            cond = self._as_bool_term(self._eval(expr.cond, state))
            then_val = self._eval(expr.then, state)
            else_val = self._eval(expr.otherwise, state)
            if isinstance(then_val, Term) and isinstance(else_val, Term):
                return mk(TermKind.ITE, cond, then_val, else_val)
            raise SymbolicExecutionError("ternary over non-scalar values")
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr, state)
        if isinstance(expr, ast.Cast):
            return self._eval(expr.operand, state)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        raise SymbolicExecutionError(f"cannot evaluate {type(expr).__name__} symbolically")

    def _resolve(self, expr: ast.ArrayRef, state: SymbolicState) -> tuple[SymPointer, int]:
        base = self._eval(expr.base, state)
        index = _as_concrete(self._eval(expr.index, state), "array subscript")
        if not isinstance(base, SymPointer):
            raise SymbolicExecutionError("array subscript on a non-pointer value")
        return base, index

    _BIN_TABLE = {
        "+": TermKind.ADD, "-": TermKind.SUB, "*": TermKind.MUL,
        "&": TermKind.AND, "|": TermKind.OR, "^": TermKind.XOR,
        "/": TermKind.DIV, "%": TermKind.REM,
        "<<": TermKind.SHL, ">>": TermKind.ASHR,
        "<": TermKind.LT, ">": TermKind.GT, "<=": TermKind.LE, ">=": TermKind.GE,
        "==": TermKind.EQ, "!=": TermKind.NE,
    }

    def _eval_binop(self, expr: ast.BinOp, state: SymbolicState) -> SymValue:
        if expr.op in ("&&", "||"):
            left = self._as_bool_term(self._eval(expr.left, state))
            right = self._as_bool_term(self._eval(expr.right, state))
            kind = TermKind.AND if expr.op == "&&" else TermKind.OR
            return mk(kind, left, right)
        left = self._eval(expr.left, state)
        right = self._eval(expr.right, state)
        if isinstance(left, SymPointer) or isinstance(right, SymPointer):
            return self._pointer_arith(expr.op, left, right)
        if isinstance(left, (SymVector, SymPred)) or isinstance(right, (SymVector, SymPred)):
            raise SymbolicExecutionError("scalar operator applied to a vector or predicate value")
        return mk(self._BIN_TABLE[expr.op], left, right)

    def _pointer_arith(self, op: str, left: SymValue, right: SymValue) -> SymValue:
        if isinstance(left, SymPointer) and isinstance(right, Term):
            delta = _as_concrete(right, "pointer offset")
            return left.advanced(delta if op == "+" else -delta)
        if isinstance(right, SymPointer) and isinstance(left, Term) and op == "+":
            return right.advanced(_as_concrete(left, "pointer offset"))
        raise SymbolicExecutionError(f"unsupported pointer arithmetic {op!r}")

    def _eval_unary(self, expr: ast.UnaryOp, state: SymbolicState) -> SymValue:
        if expr.op == "&":
            if isinstance(expr.operand, ast.ArrayRef):
                pointer, index = self._resolve(expr.operand, state)
                return pointer.advanced(index)
            if isinstance(expr.operand, ast.Identifier):
                value = state.scalars.get(expr.operand.name)
                if isinstance(value, SymPointer):
                    return value
            raise SymbolicExecutionError("unsupported address-of operand")
        if expr.op == "*":
            value = self._eval(expr.operand, state)
            if isinstance(value, SymPointer):
                return state.load(value.region, value.offset)
            raise SymbolicExecutionError("dereference of a non-pointer")
        if expr.op in ("++", "--"):
            return self._apply_increment(expr.operand, 1 if expr.op == "++" else -1, state, return_new=True)
        operand = self._eval(expr.operand, state)
        if not isinstance(operand, Term):
            raise SymbolicExecutionError("unary operator on a non-scalar value")
        if expr.op == "-":
            return mk(TermKind.NEG, operand)
        if expr.op == "+":
            return operand
        if expr.op == "~":
            return mk(TermKind.NOT, operand)
        if expr.op == "!":
            return mk(TermKind.EQ, operand, ZERO)
        raise SymbolicExecutionError(f"unsupported unary operator {expr.op!r}")

    def _apply_increment(self, target: ast.Expr, delta: int, state: SymbolicState,
                         return_new: bool) -> Term:
        old = self._read_lvalue(target, state)
        if not isinstance(old, Term):
            raise SymbolicExecutionError("increment of a non-scalar value")
        new = mk(TermKind.ADD, old, bv_const(delta))
        self._write_lvalue(target, new, state)
        return new if return_new else old

    def _eval_assign(self, expr: ast.Assign, state: SymbolicState) -> SymValue:
        if expr.op == "=":
            value = self._eval(expr.value, state)
            self._write_lvalue(expr.target, value, state)
            return value
        base_op = expr.op[:-1]
        current = self._read_lvalue(expr.target, state)
        rhs = self._eval(expr.value, state)
        if isinstance(current, Term) and isinstance(rhs, Term):
            value: SymValue = mk(self._BIN_TABLE[base_op], current, rhs)
        elif isinstance(current, SymPointer):
            value = self._pointer_arith(base_op, current, rhs)
        else:
            raise SymbolicExecutionError("unsupported compound assignment")
        self._write_lvalue(expr.target, value, state)
        return value

    def _read_lvalue(self, target: ast.Expr, state: SymbolicState) -> SymValue:
        if isinstance(target, ast.Identifier):
            if target.name not in state.scalars:
                raise SymbolicExecutionError(f"use of undeclared identifier {target.name!r}")
            return state.scalars[target.name]
        if isinstance(target, ast.ArrayRef):
            pointer, index = self._resolve(target, state)
            return state.load(pointer.region, pointer.offset + index)
        raise SymbolicExecutionError("unsupported lvalue")

    def _write_lvalue(self, target: ast.Expr, value: SymValue, state: SymbolicState) -> None:
        if isinstance(target, ast.Identifier):
            state.scalars[target.name] = value
            return
        if isinstance(target, ast.ArrayRef):
            pointer, index = self._resolve(target, state)
            if not isinstance(value, Term):
                raise SymbolicExecutionError("storing a non-scalar value to an array cell")
            state.store(pointer.region, pointer.offset + index, value)
            return
        raise SymbolicExecutionError("unsupported assignment target")

    def _as_bool_term(self, value: SymValue) -> Term:
        if isinstance(value, Term):
            if value.kind in (TermKind.LT, TermKind.LE, TermKind.GT, TermKind.GE,
                              TermKind.EQ, TermKind.NE):
                return value
            if value.kind is TermKind.CONST:
                return bv_const(1 if value.value != 0 else 0)
            return mk(TermKind.NE, value, ZERO)
        raise SymbolicExecutionError("condition is not a scalar value")

    # -- intrinsics ---------------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, state: SymbolicState) -> SymValue:
        name = expr.func
        if name == "abs":
            value = self._eval(expr.args[0], state)
            return mk(TermKind.ABS, value)
        if name in ("max", "min"):
            left = self._eval(expr.args[0], state)
            right = self._eval(expr.args[1], state)
            return mk(TermKind.MAX if name == "max" else TermKind.MIN, left, right)
        if not is_intrinsic(name):
            raise SymbolicExecutionError(f"call to unmodelled function {name!r}")
        spec = lookup_intrinsic(name, self.dtype)
        if spec.kind == "load":
            pointer = self._pointer_arg(expr.args[0], state)
            return SymVector([state.load(pointer.region, pointer.offset + lane)
                              for lane in range(spec.lanes)])
        if spec.kind == "store":
            pointer = self._pointer_arg(expr.args[0], state)
            vector = self._vector_arg(expr.args[1], state, spec.lanes)
            for lane in range(spec.lanes):
                state.store(pointer.region, pointer.offset + lane, vector.lanes[lane])
            return vector
        if spec.kind == "maskload":
            # A lane is enabled when its mask sign bit is set (matching the
            # interpreter and the hardware semantics).  Masked-off lanes read
            # as zero and, crucially, do not touch memory: a constant-false
            # mask lane must not record OOB UB.
            pointer = self._pointer_arg(expr.args[0], state)
            mask = self._vector_arg(expr.args[1], state, spec.lanes)
            region = state.regions.get(pointer.region)
            if region is None:
                raise SymbolicExecutionError(f"load from unknown region {pointer.region!r}")
            lanes = []
            for lane, m in enumerate(mask.lanes):
                index = pointer.offset + lane
                if m.kind is TermKind.CONST:
                    lanes.append(state.load(pointer.region, index)
                                 if lane_active(m.value, spec.lane_type) else ZERO)
                elif index < 0 or index >= region.size:
                    # Whether the out-of-bounds lane is read depends on a
                    # symbolic mask bit; neither "UB" nor "no UB" is sound,
                    # so report the query as Inconclusive.
                    raise SymbolicExecutionError(
                        "masked load with a data-dependent mask reaches the region boundary"
                    )
                else:
                    lanes.append(mk(TermKind.ITE, mk(TermKind.LT, m, ZERO),
                                    state.load(pointer.region, index), ZERO))
            return SymVector(lanes)
        if spec.kind == "maskstore":
            # Mirror image of the masked load: enabled lanes (mask sign bit
            # set) store, disabled lanes must not touch memory — a
            # constant-false lane at the region boundary records no UB.
            pointer = self._pointer_arg(expr.args[0], state)
            mask = self._vector_arg(expr.args[1], state, spec.lanes)
            vector = self._vector_arg(expr.args[2], state, spec.lanes)
            region = state.regions.get(pointer.region)
            if region is None:
                raise SymbolicExecutionError(f"store to unknown region {pointer.region!r}")
            for lane, m in enumerate(mask.lanes):
                index = pointer.offset + lane
                if m.kind is TermKind.CONST:
                    if lane_active(m.value, spec.lane_type):
                        state.store(pointer.region, index, vector.lanes[lane])
                elif index < 0 or index >= region.size:
                    # Whether the out-of-bounds lane is written depends on a
                    # symbolic mask bit; report the query as Inconclusive.
                    raise SymbolicExecutionError(
                        "masked store with a data-dependent mask reaches the region boundary"
                    )
                else:
                    old = state.load(pointer.region, index)
                    state.store(pointer.region, index,
                                mk(TermKind.ITE, mk(TermKind.LT, m, ZERO),
                                   vector.lanes[lane], old))
            return vector
        if spec.kind == "ptrue":
            return SymPred([ONE] * spec.lanes)
        if spec.kind == "whilelt":
            # Both operands are loop-control scalars, concrete during bounded
            # unrolling — which is exactly what lets the verifier prove a
            # predicated loop at an unaligned trip count: the final
            # iteration's tail predicate disables the out-of-bounds lanes
            # *concretely*, so no boundary access ever happens.
            base = _as_concrete(self._eval(expr.args[0], state), "whilelt base")
            bound = _as_concrete(self._eval(expr.args[1], state), "whilelt bound")
            return SymPred([ONE if active else ZERO
                            for active in whilelt_lanes(base, bound, spec.lanes)])
        if spec.kind == "ptest":
            pred = self._pred_arg(expr.args[0], state, spec.lanes)
            if all(lane.kind is TermKind.CONST for lane in pred.lanes):
                return bv_const(1 if any(lane.value != 0 for lane in pred.lanes) else 0)
            any_active = pred.lanes[0]
            for lane in pred.lanes[1:]:
                any_active = mk(TermKind.OR, any_active, lane)
            return any_active
        # The predicate ops are named after their lane ops: ``pand`` is
        # ``and``, ``pcmpgt`` is ``cmpgt``, ``padd`` is ``add``.
        if spec.kind == "pred_unary":
            gov = self._pred_arg(expr.args[0], state, spec.lanes)
            operand = self._pred_arg(expr.args[1], state, spec.lanes)
            return SymPred([pred_not_term(g, p)
                            for g, p in zip(gov.lanes, operand.lanes)])
        if spec.kind == "pred_binary":
            gov = self._pred_arg(expr.args[0], state, spec.lanes)
            a = self._pred_arg(expr.args[1], state, spec.lanes)
            b = self._pred_arg(expr.args[2], state, spec.lanes)
            op = spec.op.removeprefix("p")
            return SymPred([pred_logic_term(op, g, x, y)
                            for g, x, y in zip(gov.lanes, a.lanes, b.lanes)])
        if spec.kind == "pred_cmp":
            gov = self._pred_arg(expr.args[0], state, spec.lanes)
            a = self._vector_arg(expr.args[1], state, spec.lanes)
            b = self._vector_arg(expr.args[2], state, spec.lanes)
            op = spec.op.removeprefix("p")
            return SymPred([pred_cmp_term(op, g, x, y)
                            for g, x, y in zip(gov.lanes, a.lanes, b.lanes)])
        if spec.kind == "psel":
            pred = self._pred_arg(expr.args[0], state, spec.lanes)
            a = self._vector_arg(expr.args[1], state, spec.lanes)
            b = self._vector_arg(expr.args[2], state, spec.lanes)
            return SymVector([psel_term(p, x, y)
                              for p, x, y in zip(pred.lanes, a.lanes, b.lanes)])
        if spec.kind == "pred_merge_binary":
            pred = self._pred_arg(expr.args[0], state, spec.lanes)
            a = self._vector_arg(expr.args[1], state, spec.lanes)
            b = self._vector_arg(expr.args[2], state, spec.lanes)
            op = spec.op.removeprefix("p")
            return SymVector([pred_merge_term(op, p, x, y)
                              for p, x, y in zip(pred.lanes, a.lanes, b.lanes)])
        if spec.kind == "index":
            base = self._eval(expr.args[0], state)
            if not isinstance(base, Term):
                raise SymbolicExecutionError("index base is not a scalar")
            step = _as_concrete(self._eval(expr.args[1], state), "index step")
            return SymVector([mk(TermKind.ADD, base, bv_const(step * lane))
                              for lane in range(spec.lanes)])
        if spec.kind == "pload":
            # A lane reads memory only where the predicate is active;
            # inactive lanes come back zero and never touch memory — an
            # inactive lane at the region boundary records no UB, which is
            # the soundness property the predicated tail rests on.
            pred = self._pred_arg(expr.args[0], state, spec.lanes)
            pointer = self._pointer_arg(expr.args[1], state)
            region = state.regions.get(pointer.region)
            if region is None:
                raise SymbolicExecutionError(f"load from unknown region {pointer.region!r}")
            lanes = []
            for lane, p in enumerate(pred.lanes):
                index = pointer.offset + lane
                if p.kind is TermKind.CONST:
                    lanes.append(state.load(pointer.region, index)
                                 if p.value != 0 else ZERO)
                elif index < 0 or index >= region.size:
                    # Whether the out-of-bounds lane is read depends on a
                    # symbolic predicate bit; neither "UB" nor "no UB" is
                    # sound, so report the query as Inconclusive.
                    raise SymbolicExecutionError(
                        "predicated load with a data-dependent predicate "
                        "reaches the region boundary"
                    )
                else:
                    lanes.append(mk(TermKind.ITE, mk(TermKind.NE, p, ZERO),
                                    state.load(pointer.region, index), ZERO))
            return SymVector(lanes)
        if spec.kind == "pstore":
            pred = self._pred_arg(expr.args[0], state, spec.lanes)
            pointer = self._pointer_arg(expr.args[1], state)
            vector = self._vector_arg(expr.args[2], state, spec.lanes)
            region = state.regions.get(pointer.region)
            if region is None:
                raise SymbolicExecutionError(f"store to unknown region {pointer.region!r}")
            for lane, p in enumerate(pred.lanes):
                index = pointer.offset + lane
                if p.kind is TermKind.CONST:
                    if p.value != 0:
                        state.store(pointer.region, index, vector.lanes[lane])
                elif index < 0 or index >= region.size:
                    raise SymbolicExecutionError(
                        "predicated store with a data-dependent predicate "
                        "reaches the region boundary"
                    )
                else:
                    old = state.load(pointer.region, index)
                    state.store(pointer.region, index,
                                mk(TermKind.ITE, mk(TermKind.NE, p, ZERO),
                                   vector.lanes[lane], old))
            return vector
        if spec.kind == "set1":
            value = self._eval(expr.args[0], state)
            if not isinstance(value, Term):
                raise SymbolicExecutionError("set1 argument is not a scalar")
            return SymVector([value] * spec.lanes)
        if spec.kind == "setzero":
            return SymVector([ZERO] * spec.lanes)
        if spec.kind in ("setr", "set"):
            if len(expr.args) != spec.lanes:
                raise SymbolicExecutionError(
                    f"{name} takes {spec.lanes} lane arguments, got {len(expr.args)}"
                )
            lanes = [self._eval(arg, state) for arg in expr.args]
            if spec.kind == "set":
                lanes = list(reversed(lanes))
            return SymVector(list(lanes))
        if spec.kind == "extract":
            vector = self._vector_arg(expr.args[0], state, spec.lanes)
            lane = _as_concrete(self._eval(expr.args[1], state), "extract lane") % spec.lanes
            return vector.lanes[lane]
        if spec.kind == "cast_low":
            # Low-register-half reinterpret: truncate to half the lanes
            # (see interpreter).
            vector = self._vector_arg(expr.args[0], state, spec.lanes)
            return SymVector(list(vector.lanes[: spec.lanes // 2]))
        if spec.kind == "pure_binary":
            left = self._vector_arg(expr.args[0], state, spec.lanes)
            right = self._vector_arg(expr.args[1], state, spec.lanes)
            return SymVector([lane_binary_term(spec.op, a, b) for a, b in zip(left.lanes, right.lanes)])
        if spec.kind == "pure_unary":
            operand = self._vector_arg(expr.args[0], state, spec.lanes)
            return SymVector([lane_unary_term(spec.op, lane) for lane in operand.lanes])
        if spec.kind == "pure_imm":
            vector = self._vector_arg(expr.args[0], state, spec.lanes)
            imm = _as_concrete(self._eval(expr.args[1], state), "intrinsic immediate")
            return self._imm_op(spec.op, vector, imm)
        if spec.kind == "pure_imm2" and spec.op == "permute_halves":
            a = self._vector_arg(expr.args[0], state, spec.lanes)
            b = self._vector_arg(expr.args[1], state, spec.lanes)
            imm = _as_concrete(self._eval(expr.args[2], state), "permute immediate")
            half = spec.lanes // 2
            halves = [a.lanes[:half], a.lanes[half:], b.lanes[:half], b.lanes[half:]]
            low = [ZERO] * half if imm & 0x08 else list(halves[imm & 0x3])
            high = [ZERO] * half if imm & 0x80 else list(halves[(imm >> 4) & 0x3])
            return SymVector(low + high)
        if spec.kind == "pure_vector" and spec.op == "select":
            a = self._vector_arg(expr.args[0], state, spec.lanes)
            b = self._vector_arg(expr.args[1], state, spec.lanes)
            mask = self._vector_arg(expr.args[2], state, spec.lanes)
            return SymVector([select_lane_term(av, bv, m)
                              for av, bv, m in zip(a.lanes, b.lanes, mask.lanes)])
        if spec.kind == "pure_vector" and spec.op == "hadd":
            a = self._vector_arg(expr.args[0], state, spec.lanes)
            b = self._vector_arg(expr.args[1], state, spec.lanes)
            block_lanes = 128 // spec.lane_type.bits
            lanes = []
            for block in range(spec.lanes // block_lanes):
                base = block * block_lanes
                for src in (a, b):
                    for pair in range(block_lanes // 2):
                        i = base + 2 * pair
                        lanes.append(mk(TermKind.ADD, src.lanes[i], src.lanes[i + 1]))
            return SymVector(lanes)
        raise SymbolicExecutionError(f"intrinsic {name} is not modelled symbolically")

    def _imm_op(self, op: str, vector: SymVector, imm: int) -> SymVector:
        """Immediate-operand lane ops: shifts and in-block shuffles."""
        imm = int(imm)
        if op == "shuffle":
            selectors = [(imm >> (2 * i)) & 0x3 for i in range(4)]
            lanes = []
            for block in range(vector.width // 4):
                base = block * 4
                lanes += [vector.lanes[base + sel] for sel in selectors]
            return SymVector(lanes)
        return SymVector([shift_lane_term(op, lane, imm) for lane in vector.lanes])

    def _pointer_arg(self, expr: ast.Expr, state: SymbolicState) -> SymPointer:
        value = self._eval(expr, state)
        if not isinstance(value, SymPointer):
            raise SymbolicExecutionError("intrinsic memory operand is not a pointer")
        return value

    def _vector_arg(self, expr: ast.Expr, state: SymbolicState,
                    lanes: int | None = None) -> SymVector:
        value = self._eval(expr, state)
        if not isinstance(value, SymVector):
            raise SymbolicExecutionError("intrinsic vector operand is not a vector value")
        if lanes is not None and value.width != lanes:
            raise SymbolicExecutionError(
                f"intrinsic vector operand has {value.width} lanes, expected {lanes}"
            )
        return value

    def _pred_arg(self, expr: ast.Expr, state: SymbolicState,
                  lanes: int | None = None) -> SymPred:
        value = self._eval(expr, state)
        if not isinstance(value, SymPred):
            raise SymbolicExecutionError("intrinsic predicate operand is not a predicate value")
        if lanes is not None and value.width != lanes:
            raise SymbolicExecutionError(
                f"intrinsic predicate operand has {value.width} lanes, expected {lanes}"
            )
        return value


class _ReturnSignal(Exception):
    pass


def execute_symbolically(
    func: ast.FunctionDef,
    array_sizes: Mapping[str, int],
    scalar_values: Mapping[str, int],
    max_steps: int = 200_000,
) -> SymbolicState:
    """Run ``func`` symbolically with the given region sizes and concrete scalars.

    Array cells share variable names across calls (``a_0``, ``a_1``, ...), so
    executing the scalar and vectorized functions with the same sizes yields
    final states over the same symbolic inputs — exactly what the refinement
    check needs.
    """
    dtype = ast.kernel_dtype(func)
    with modeled_bits(dtype.bits):
        state = SymbolicState()
        for param in func.params:
            if param.param_type.is_pointer:
                size = array_sizes.get(param.name)
                if size is None:
                    raise SymbolicExecutionError(
                        f"no size provided for array parameter {param.name!r}"
                    )
                state.regions[param.name] = SymRegion(param.name, size)
                state.scalars[param.name] = SymPointer(param.name, 0)
            else:
                if param.name not in scalar_values:
                    raise SymbolicExecutionError(
                        f"no value provided for scalar parameter {param.name!r}"
                    )
                state.scalars[param.name] = bv_const(int(scalar_values[param.name]))
        executor = SymbolicExecutor(func, state, max_steps=max_steps, dtype=dtype)
        return executor.run()
