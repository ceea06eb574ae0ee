"""SIMD code generation from a vectorization plan, for any target ISA.

The generator rewrites the innermost loop of a kernel into

* a *vector loop* processing one lane-count block of iterations per trip
  with the target's own intrinsic spellings (loads hoisted above stores,
  if-conversion through compare/select masks, vector accumulators for
  reductions, ``setr`` ramps for induction variables), followed by
* reduction finalization (horizontal combine back into the scalar), and
* a scalar *epilogue loop* that finishes the remaining ``n mod lanes``
  iterations with the original loop body — or, when the plan carries
  ``epilogue="masked"``, one masked tail iteration that retires the remainder
  with the target's masked loads/stores instead of a scalar loop,

which is exactly the shape of the GPT-4 generated code in the paper's
Figures 1 and Section 4.4 (there for AVX2, the default target here).
Every intrinsic is requested by its generic op name through the target's
spelling table; anything the generator cannot express raises
:class:`InfeasibleVectorization`, and callers treat that like a planner
rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfront import ast_nodes as ast
from repro.cfront.ctypes import CType, INT
from repro.cfront.printer import expr_to_c, function_to_c
from repro.lanetypes import INT32, LaneType
from repro.targets import TargetISA, get_target
from repro.vectorizer.planner import ReductionInfo, VectorizationPlan, plan_vectorization


class InfeasibleVectorization(Exception):
    """Raised when code generation cannot express the kernel on the target."""


@dataclass
class VectorizationResult:
    """Successful output of the vectorizer."""

    function: ast.FunctionDef
    source: str
    strategy: str
    plan: VectorizationPlan

    @property
    def target(self) -> TargetISA:
        return self.plan.target


# ---------------------------------------------------------------------------
# small AST construction helpers
# ---------------------------------------------------------------------------


def _ident(name: str) -> ast.Identifier:
    return ast.Identifier(name=name)


def _lit(value: int) -> ast.Expr:
    if value < 0:
        return ast.UnaryOp(op="-", operand=ast.IntLiteral(value=-value))
    return ast.IntLiteral(value=value)


def _call(func: str, *args: ast.Expr) -> ast.Call:
    return ast.Call(func=func, args=list(args))


def _index_expr(base: str, offset: int) -> ast.Expr:
    if offset == 0:
        return _ident(base)
    op = "+" if offset > 0 else "-"
    return ast.BinOp(op=op, left=_ident(base), right=ast.IntLiteral(value=abs(offset)))


# ---------------------------------------------------------------------------
# the body builder
# ---------------------------------------------------------------------------


@dataclass
class _MaskContext:
    """The currently active if-conversion mask register (None = unconditional)."""

    register: str | None = None


class _VectorBodyBuilder:
    """Builds the statements of the vector loop body for one kernel."""

    def __init__(self, plan: VectorizationPlan, iterator: str, existing_names: set[str]):
        self.plan = plan
        self.target = plan.target
        self.dtype = plan.dtype
        self.lanes = plan.target.lanes_for(plan.dtype)
        self.iterator = iterator
        self.existing_names = existing_names
        #: When set, the builder is emitting a masked tail: every memory
        #: access goes through maskload/maskstore with this mask register.
        self.tail_mask: str | None = None
        #: Predicate-first targets (SVE): masks live in predicate registers,
        #: comparisons produce them, selects and *all* memory consume them.
        self.predicated: bool = plan.target.has_predicates
        #: The ``whilelt`` loop-governing predicate register of a predicated
        #: loop; None outside that strategy (plain predicated code is
        #: governed by an all-true ``ptrue`` materialized on demand).
        self.loop_pred: str | None = None
        self.counter = 0
        self.preload_stmts: list[ast.Stmt] = []
        self.body_stmts: list[ast.Stmt] = []
        self.registers: dict[tuple, str] = {}
        self.reductions = {r.name: r for r in plan.reductions}
        self.inductions = {i.name: i for i in plan.inductions}
        self.induction_updates_seen: dict[str, int] = {name: 0 for name in self.inductions}
        self.accumulators: dict[str, str] = {}
        self.reduction_ops: dict[str, str] = {r.name: r.operation for r in plan.reductions}
        self.local_temporaries = set(plan.local_temporaries)

    # -- target plumbing ------------------------------------------------------

    def _op(self, op: str) -> str:
        """Concrete intrinsic name of a generic op on the active target,
        at the kernel's lane element type."""
        if not self.target.supports(op, self.dtype):
            if op in ("maskload", "maskstore"):
                raise InfeasibleVectorization(
                    f"masked memory operation {op!r} has no "
                    f"{self.target.display_name} equivalent (no masked "
                    f"loads/stores on this target; select-based masking "
                    f"covers in-register blends only)"
                )
            detail = "" if self.dtype is INT32 else f" at {self.dtype.name}"
            raise InfeasibleVectorization(
                f"operation {op!r} has no {self.target.display_name} equivalent{detail}"
            )
        return self.target.intrinsic(op, self.dtype)

    def _binop_intrinsic(self, op: str) -> str | None:
        table = {"+": "add", "-": "sub", "*": "mul",
                 "&": "and", "|": "or", "^": "xor"}
        generic = table.get(op)
        return self._op(generic) if generic is not None else None

    def _vector_pointer(self, array: str, index: ast.Expr) -> ast.Expr:
        address = ast.UnaryOp(op="&", operand=ast.ArrayRef(base=_ident(array), index=index))
        return ast.Cast(target_type=self.target.vector_pointer_ctype_for(self.dtype),
                        operand=address)

    def _vec_decl(self, name: str, init: ast.Expr) -> ast.Decl:
        return ast.Decl(var_type=self.target.vector_ctype_for(self.dtype), name=name, init=init)

    def _pred_decl(self, name: str, init: ast.Expr) -> ast.Decl:
        return ast.Decl(var_type=self.target.predicate_ctype, name=name, init=init)

    def _governing_pred(self) -> str:
        """The predicate governing memory/compares: the loop's ``whilelt``
        register inside a predicated loop, else an all-true ``ptrue``
        materialized once in the preheader of the loop body."""
        if self.loop_pred is not None:
            return self.loop_pred
        key = ("ptrue",)
        if key not in self.registers:
            name = self._fresh("pg_all")
            self.preload_stmts.insert(
                0, self._pred_decl(name, _call(self._op("ptrue")))
            )
            self.registers[key] = name
        return self.registers[key]

    def _load_call(self, pointer: ast.Expr) -> ast.Call:
        """A full-width load: masked in a tail, predicate-governed on
        predicate-first targets (which have no unpredicated loads), plain
        ``loadu`` otherwise."""
        if self.tail_mask is not None:
            return _call(self._op("maskload"), pointer, _ident(self.tail_mask))
        if self.predicated:
            return _call(self._op("pload"),
                         _ident(self._governing_pred()), pointer)
        return _call(self._op("loadu"), pointer)

    def _store_call(self, address: ast.Expr, value: str) -> ast.Call:
        if self.tail_mask is not None:
            return _call(self._op("maskstore"), address,
                         _ident(self.tail_mask), _ident(value))
        if self.predicated:
            return _call(self._op("pstore"),
                         _ident(self._governing_pred()), address, _ident(value))
        return _call(self._op("storeu"), address, _ident(value))

    # -- naming ---------------------------------------------------------------

    def _fresh(self, hint: str) -> str:
        hint = hint.replace("-", "m").replace("+", "p")
        name = f"v{hint}_{self.counter}"
        self.counter += 1
        while name in self.existing_names:
            name = name + "_"
        self.existing_names.add(name)
        return name

    # -- register helpers --------------------------------------------------------

    def _emit(self, stmt: ast.Stmt) -> None:
        self.body_stmts.append(stmt)

    def _emit_value(self, hint: str, init: ast.Expr) -> str:
        name = self._fresh(hint)
        self._emit(self._vec_decl(name, init))
        return name

    def _emit_pred(self, hint: str, init: ast.Expr) -> str:
        name = self._fresh(hint)
        self._emit(self._pred_decl(name, init))
        return name

    def _constant_vector(self, value: int) -> str:
        key = ("const", value)
        if key not in self.registers:
            self.registers[key] = self._emit_value(f"c{value}", _call(self._op("set1"), _lit(value)))
        return self.registers[key]

    def _zero_vector(self) -> str:
        key = ("zero",)
        if key not in self.registers:
            # x86 has a dedicated zero idiom; NEON-class targets broadcast 0.
            name, args = self.target.zero_call(self.dtype)
            self.registers[key] = self._emit_value(
                "zero", _call(name, *[_lit(arg) for arg in args])
            )
        return self.registers[key]

    def _splat_expr(self, expr: ast.Expr, hint: str) -> str:
        return self._emit_value(hint, _call(self._op("set1"), expr))

    def _read_location(self, array: str, offset: int) -> str:
        current = self.registers.get(("cur", array, offset))
        if current is not None:
            return current
        key = ("load", array, offset)
        if key not in self.registers:
            name = self._fresh(f"{array}_{offset}")
            pointer = self._vector_pointer(array, _index_expr(self.iterator, offset))
            self.preload_stmts.append(self._vec_decl(name, self._load_call(pointer)))
            self.registers[key] = name
        return self.registers[key]

    def _iterator_vector(self) -> str:
        key = ("itervec",)
        if key not in self.registers:
            if self.target.supports("index", self.dtype):
                # SVE's ramp constructor: svindex(i, 1) is the iterator
                # vector in one instruction.
                self.registers[key] = self._emit_value(
                    "ivec", _call(self._op("index"), _ident(self.iterator), _lit(1))
                )
            else:
                ramp = _call(self._op("setr"), *[_lit(k) for k in range(self.lanes)])
                base = _call(self._op("set1"), _ident(self.iterator))
                ramp_reg = self._emit_value("ramp", ramp)
                base_reg = self._emit_value("ibase", base)
                self.registers[key] = self._emit_value(
                    "ivec", _call(self._op("add"), _ident(base_reg), _ident(ramp_reg))
                )
        return self.registers[key]

    def _induction_vector(self, name: str) -> str:
        """Vector of the induction variable's values for the current 8 lanes."""
        info = self.inductions[name]
        updates_seen = self.induction_updates_seen[name]
        key = ("ind", name, updates_seen)
        if key not in self.registers:
            if self.target.supports("index", self.dtype):
                base = _index_expr(name, info.step * updates_seen)
                self.registers[key] = self._emit_value(
                    f"{name}_vec", _call(self._op("index"), base, _lit(info.step))
                )
            else:
                lanes = [_lit(info.step * (lane + updates_seen)) for lane in range(self.lanes)]
                ramp_reg = self._emit_value(f"{name}_ramp", _call(self._op("setr"), *lanes))
                base_reg = self._emit_value(f"{name}_base", _call(self._op("set1"), _ident(name)))
                self.registers[key] = self._emit_value(
                    f"{name}_vec", _call(self._op("add"), _ident(base_reg), _ident(ramp_reg))
                )
        return self.registers[key]

    def _accumulator(self, name: str) -> str:
        if name not in self.accumulators:
            raise InfeasibleVectorization(f"reduction accumulator for {name!r} was not initialized")
        return self.accumulators[name]

    # -- condition handling ------------------------------------------------------------

    def _all_ones(self) -> str:
        key = ("ones",)
        if key not in self.registers:
            self.registers[key] = self._constant_vector(-1)
        return self.registers[key]

    def _invert(self, mask: str) -> str:
        if self.predicated:
            return self._emit_pred("pnot", _call(
                self._op("pnot"), _ident(self._governing_pred()), _ident(mask)))
        return self._emit_value("nmask", _call(self._op("xor"), _ident(mask), _ident(self._all_ones())))

    def _and_masks(self, left: str | None, right: str) -> str:
        if left is None:
            return right
        if self.predicated:
            return self._emit_pred("pmask", _call(
                self._op("pand"), _ident(self._governing_pred()),
                _ident(left), _ident(right)))
        return self._emit_value("mask", _call(self._op("and"), _ident(left), _ident(right)))

    def _emit_select(self, else_reg: str, then_reg: str, mask: str,
                     hint: str = "sel") -> str:
        """Blend two vectors under a mask.

        On predicate-first targets the mask is a predicate and the spelling
        is ACLE's ``svsel(pred, then, else)``; elsewhere it is the shared
        data-vector ``select(else, then, mask)`` shape.
        """
        if self.predicated:
            return self._emit_value(hint, _call(
                self._op("psel"), _ident(mask), _ident(then_reg), _ident(else_reg)))
        return self._emit_value(hint, _call(
            self._op("select"), _ident(else_reg), _ident(then_reg), _ident(mask)))

    def _emit_cmp(self, kind: str, left: str, right: str, hint: str) -> str:
        """Emit one greater-than/equality compare of two vector registers.

        On predicate-first targets the compare writes a predicate register
        (``svcmpgt``/``svcmpeq`` governed by the active predicate); elsewhere
        it writes an all-ones-per-lane data-vector mask.  This is the single
        primitive behind every condition shape, so the two mask flavours
        cannot diverge per operator.
        """
        if self.predicated:
            op = "pcmpgt" if kind == "gt" else "pcmpeq"
            return self._emit_pred("p" + hint, _call(
                self._op(op), _ident(self._governing_pred()),
                _ident(left), _ident(right)))
        op = "cmpgt" if kind == "gt" else "cmpeq"
        return self._emit_value(hint, _call(self._op(op), _ident(left), _ident(right)))

    def _condition_mask(self, cond: ast.Expr) -> str:
        """Return a register holding an all-ones-per-lane mask (or, on
        predicate-first targets, a predicate register) where ``cond`` is true."""
        if isinstance(cond, ast.BinOp) and cond.op in ("<", ">", "<=", ">=", "==", "!="):
            left = self._vectorize_value(cond.left)
            right = self._vectorize_value(cond.right)
            if cond.op == ">":
                return self._emit_cmp("gt", left, right, "gt")
            if cond.op == "<":
                return self._emit_cmp("gt", right, left, "lt")
            if cond.op == "==":
                return self._emit_cmp("eq", left, right, "eq")
            if cond.op == "!=":
                return self._invert(self._emit_cmp("eq", left, right, "eq"))
            if cond.op == ">=":
                return self._invert(self._emit_cmp("gt", right, left, "lt"))
            # cond.op == "<="
            return self._invert(self._emit_cmp("gt", left, right, "gt"))
        # Bare value used as a condition: true when != 0.
        value = self._vectorize_value(cond)
        return self._invert(self._emit_cmp("eq", value, self._zero_vector(), "eqz"))

    # -- value vectorization ---------------------------------------------------------------

    def _vectorize_value(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLiteral):
            return self._constant_vector(expr.value)
        if isinstance(expr, ast.UnaryOp) and expr.op == "-" and isinstance(expr.operand, ast.IntLiteral):
            return self._constant_vector(-expr.operand.value)
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name == self.iterator:
                return self._iterator_vector()
            if name in self.inductions:
                return self._induction_vector(name)
            if name in self.reductions:
                raise InfeasibleVectorization(
                    f"reduction variable {name!r} is read outside its accumulation"
                )
            if ("temp", name) in self.registers:
                return self.registers[("temp", name)]
            if name in self.local_temporaries:
                raise InfeasibleVectorization(f"temporary {name!r} read before being assigned")
            # Loop-invariant outer scalar or parameter: broadcast it.
            key = ("splat", name)
            if key not in self.registers:
                self.registers[key] = self._splat_expr(_ident(name), name)
            return self.registers[key]
        if isinstance(expr, ast.ArrayRef):
            return self._vectorize_array_read(expr)
        if isinstance(expr, ast.BinOp):
            return self._vectorize_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                operand = self._vectorize_value(expr.operand)
                return self._emit_value("neg", _call(self._op("sub"), _ident(self._zero_vector()), _ident(operand)))
            if expr.op == "+":
                return self._vectorize_value(expr.operand)
            if expr.op == "~":
                operand = self._vectorize_value(expr.operand)
                return self._invert(operand)
            raise InfeasibleVectorization(
                f"unary operator {expr.op!r} has no {self.target.display_name} equivalent"
            )
        if isinstance(expr, ast.TernaryOp):
            mask = self._condition_mask(expr.cond)
            then_reg = self._vectorize_value(expr.then)
            else_reg = self._vectorize_value(expr.otherwise)
            return self._emit_select(else_reg, then_reg, mask)
        if isinstance(expr, ast.Call):
            if expr.func == "abs":
                operand = self._vectorize_value(expr.args[0])
                return self._emit_value("abs", _call(self._op("abs"), _ident(operand)))
            if expr.func in ("max", "min"):
                left = self._vectorize_value(expr.args[0])
                right = self._vectorize_value(expr.args[1])
                intrinsic = self._op("max") if expr.func == "max" else self._op("min")
                return self._emit_value(expr.func, _call(intrinsic, _ident(left), _ident(right)))
            raise InfeasibleVectorization(f"call to {expr.func!r} cannot be vectorized")
        raise InfeasibleVectorization(f"expression {type(expr).__name__} cannot be vectorized")

    def _vectorize_array_read(self, expr: ast.ArrayRef) -> str:
        array = expr.base.name if isinstance(expr.base, ast.Identifier) else None
        if array is None:
            raise InfeasibleVectorization("array read through a computed base pointer")
        offset = self._affine_offset(expr.index)
        if offset is not None:
            return self._read_location(array, offset)
        induction = self._induction_offset(expr.index)
        if induction is not None:
            name, const = induction
            info = self.inductions[name]
            if abs(info.step) != 1:
                raise InfeasibleVectorization("induction-indexed access with non-unit step")
            updates_seen = self.induction_updates_seen[name]
            total = const + info.step * updates_seen
            index = _index_expr(name, total)
            load = self._load_call(self._vector_pointer(array, index))
            return self._emit_value(f"{array}_{name}", load)
        if self._is_loop_invariant(expr.index):
            return self._splat_expr(ast.clone_tree(expr), f"{array}_inv")
        raise InfeasibleVectorization("array subscript is neither affine nor loop-invariant")

    def _vectorize_binop(self, expr: ast.BinOp) -> str:
        intrinsic = self._binop_intrinsic(expr.op)
        if intrinsic is not None:
            left = self._vectorize_value(expr.left)
            right = self._vectorize_value(expr.right)
            return self._emit_value("t", _call(intrinsic, _ident(left), _ident(right)))
        if expr.op in ("<", ">", "<=", ">=", "==", "!="):
            mask = self._condition_mask(expr)
            one = self._constant_vector(1)
            if self.predicated:
                # Predicate registers have no bitwise view; a C boolean value
                # is a predicate-selected blend of 1 and 0.
                return self._emit_select(self._zero_vector(), one, mask, hint="bool")
            return self._emit_value("bool", _call(self._op("and"), _ident(mask), _ident(one)))
        raise InfeasibleVectorization(
            f"binary operator {expr.op!r} has no {self.target.display_name} integer equivalent"
        )

    # -- affine helpers ------------------------------------------------------------------------

    def _affine_offset(self, index: ast.Expr) -> int | None:
        """Offset o when ``index`` is ``iterator + o`` (coefficient 1), else None."""
        from repro.analysis.accesses import affine_index

        affine = affine_index(index, self.iterator)
        if affine.is_iterator_affine and affine.coefficient == 1:
            return affine.offset
        return None

    def _induction_offset(self, index: ast.Expr) -> tuple[str, int] | None:
        if isinstance(index, ast.Identifier) and index.name in self.inductions:
            return index.name, 0
        if (
            isinstance(index, ast.BinOp)
            and index.op in ("+", "-")
            and isinstance(index.left, ast.Identifier)
            and index.left.name in self.inductions
            and isinstance(index.right, ast.IntLiteral)
        ):
            sign = 1 if index.op == "+" else -1
            return index.left.name, sign * index.right.value
        return None

    def _is_loop_invariant(self, expr: ast.Expr) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Identifier):
                if node.name == self.iterator or node.name in self.inductions:
                    return False
                if node.name in self.local_temporaries or node.name in self.reductions:
                    return False
            if isinstance(node, (ast.Assign, ast.Call)):
                return False
        return True

    # -- statement emission -------------------------------------------------------------------------

    def build(self, body: ast.Stmt) -> None:
        self._init_accumulators()
        self._emit_stmt(body, mask=None)
        self._emit_induction_advances()

    def _init_accumulators(self) -> None:
        for reduction in self.plan.reductions:
            if reduction.operation == "+":
                zero_name, zero_args = self.target.zero_call(self.dtype)
                init: ast.Expr = _call(zero_name, *[_lit(arg) for arg in zero_args])
            elif reduction.operation == "*":
                init = _call(self._op("set1"), _lit(1))
            else:  # max / min start from the current scalar value
                init = _call(self._op("set1"), _ident(reduction.name))
            name = self._fresh(f"acc_{reduction.name}")
            # Accumulators are declared in the preheader, before the vector loop.
            self.accumulators[reduction.name] = name
            self.accumulator_decls = getattr(self, "accumulator_decls", [])
            self.accumulator_decls.append(self._vec_decl(name, init))

    def _emit_induction_advances(self) -> None:
        for name, info in self.inductions.items():
            advance = ast.Assign(
                op="+=" if info.step * self.lanes >= 0 else "-=",
                target=_ident(name),
                value=ast.IntLiteral(value=abs(info.step * self.lanes)),
            )
            self._emit(ast.ExprStmt(expr=advance))

    def _emit_stmt(self, stmt: ast.Stmt, mask: str | None) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self._emit_stmt(inner, mask)
            return
        if isinstance(stmt, ast.Decl):
            if stmt.init is None:
                self.registers[("temp", stmt.name)] = self._zero_vector()
                return
            value = self._vectorize_value(stmt.init)
            self.registers[("temp", stmt.name)] = value
            return
        if isinstance(stmt, ast.ExprStmt):
            self._emit_expr_stmt(stmt.expr, mask)
            return
        if isinstance(stmt, ast.If):
            self._emit_if(stmt, mask)
            return
        raise InfeasibleVectorization(f"statement {type(stmt).__name__} cannot be vectorized")

    def _emit_if(self, stmt: ast.If, mask: str | None) -> None:
        minmax = self._try_minmax_reduction(stmt, mask)
        if minmax:
            return
        cond_mask = self._condition_mask(stmt.cond)
        then_mask = self._and_masks(mask, cond_mask)
        self._emit_stmt(stmt.then, then_mask)
        if stmt.otherwise is not None:
            inverted = self._invert(cond_mask)
            else_mask = self._and_masks(mask, inverted)
            self._emit_stmt(stmt.otherwise, else_mask)

    def _try_minmax_reduction(self, stmt: ast.If, mask: str | None) -> bool:
        """Recognize ``if (expr CMP x) x = expr;`` and emit a max/min accumulate."""
        if stmt.otherwise is not None or mask is not None:
            return False
        cond = stmt.cond
        if not (isinstance(cond, ast.BinOp) and cond.op in ("<", ">")):
            return False
        body = stmt.then
        if isinstance(body, ast.Block):
            if len(body.body) != 1:
                return False
            body = body.body[0]
        if not (isinstance(body, ast.ExprStmt) and isinstance(body.expr, ast.Assign)):
            return False
        assign = body.expr
        if assign.op != "=" or not isinstance(assign.target, ast.Identifier):
            return False
        scalar = assign.target.name
        if scalar not in self.reductions:
            return False
        # Identify which side of the comparison is the scalar.
        left_text, right_text = expr_to_c(cond.left), expr_to_c(cond.right)
        value_text = expr_to_c(assign.value)
        if right_text == scalar and left_text == value_text:
            operation = "max" if cond.op == ">" else "min"
        elif left_text == scalar and right_text == value_text:
            operation = "min" if cond.op == ">" else "max"
        else:
            return False
        self.reduction_ops[scalar] = operation
        self.reductions[scalar] = ReductionInfo(name=scalar, operation=operation, initial_scalar=scalar)
        value_reg = self._vectorize_value(assign.value)
        acc = self._accumulator(scalar)
        intrinsic = self._op("max") if operation == "max" else self._op("min")
        self._emit(ast.ExprStmt(expr=ast.Assign(
            op="=", target=_ident(acc), value=_call(intrinsic, _ident(acc), _ident(value_reg))
        )))
        return True

    def _emit_expr_stmt(self, expr: ast.Expr, mask: str | None) -> None:
        if isinstance(expr, ast.Assign):
            self._emit_assign(expr, mask)
            return
        if isinstance(expr, (ast.PostfixOp, ast.UnaryOp)) and expr.op in ("++", "--"):
            target = expr.operand
            if isinstance(target, ast.Identifier) and target.name in self.inductions:
                if mask is not None:
                    raise InfeasibleVectorization("conditional induction update (packing)")
                self.induction_updates_seen[target.name] += 1
                return
            raise InfeasibleVectorization("unsupported increment statement")
        raise InfeasibleVectorization("unsupported expression statement")

    def _emit_assign(self, expr: ast.Assign, mask: str | None) -> None:
        target = expr.target
        if isinstance(target, ast.Identifier):
            self._emit_scalar_assign(target.name, expr, mask)
            return
        if isinstance(target, ast.ArrayRef):
            self._emit_array_assign(target, expr, mask)
            return
        raise InfeasibleVectorization("unsupported assignment target")

    def _emit_scalar_assign(self, name: str, expr: ast.Assign, mask: str | None) -> None:
        if name in self.inductions:
            if mask is not None:
                raise InfeasibleVectorization("conditional induction update (packing)")
            if expr.op in ("+=", "-="):
                self.induction_updates_seen[name] += 1
                return
            raise InfeasibleVectorization("unsupported induction update form")
        if name in self.reductions:
            self._emit_reduction_update(name, expr, mask)
            return
        if name in self.local_temporaries:
            value = self._compute_assigned_value(("temp", name), expr)
            if mask is not None:
                old = self.registers.get(("temp", name), self._zero_vector())
                value = self._emit_select(old, value, mask)
            self.registers[("temp", name)] = value
            return
        raise InfeasibleVectorization(f"assignment to unsupported scalar {name!r}")

    def _emit_reduction_update(self, name: str, expr: ast.Assign, mask: str | None) -> None:
        operation = self.reduction_ops[name]
        acc = self._accumulator(name)
        if operation == "+" and expr.op in ("+=",):
            value = self._vectorize_value(expr.value)
        elif operation == "+" and expr.op == "=":
            value_expr = self._strip_self_accumulation(expr.value, name)
            value = self._vectorize_value(value_expr)
        elif operation == "*" and expr.op == "*=":
            value = self._vectorize_value(expr.value)
        else:
            raise InfeasibleVectorization(f"unsupported reduction update for {name!r}")
        if mask is not None:
            neutral = self._zero_vector() if operation == "+" else self._constant_vector(1)
            value = self._emit_select(neutral, value, mask)
        intrinsic = self._op("add") if operation == "+" else self._op("mul")
        self._emit(ast.ExprStmt(expr=ast.Assign(
            op="=", target=_ident(acc), value=_call(intrinsic, _ident(acc), _ident(value))
        )))

    @staticmethod
    def _strip_self_accumulation(expr: ast.Expr, name: str) -> ast.Expr:
        """Turn ``name + rest`` / ``rest + name`` into ``rest``."""
        if isinstance(expr, ast.BinOp) and expr.op == "+":
            if isinstance(expr.left, ast.Identifier) and expr.left.name == name:
                return expr.right
            if isinstance(expr.right, ast.Identifier) and expr.right.name == name:
                return expr.left
        raise InfeasibleVectorization("reduction update is not a simple accumulation")

    def _compute_assigned_value(self, current_key: tuple, expr: ast.Assign) -> str:
        if expr.op == "=":
            return self._vectorize_value(expr.value)
        base_op = expr.op[:-1]
        intrinsic = self._binop_intrinsic(base_op)
        if intrinsic is None:
            raise InfeasibleVectorization(
                f"compound operator {expr.op!r} has no {self.target.display_name} equivalent"
            )
        current = self.registers.get(current_key)
        if current is None:
            raise InfeasibleVectorization("compound assignment to a value that was never loaded")
        value = self._vectorize_value(expr.value)
        return self._emit_value("t", _call(intrinsic, _ident(current), _ident(value)))

    def _emit_array_assign(self, target: ast.ArrayRef, expr: ast.Assign, mask: str | None) -> None:
        array = target.base.name if isinstance(target.base, ast.Identifier) else None
        if array is None:
            raise InfeasibleVectorization("store through a computed base pointer")
        offset = self._affine_offset(target.index)
        induction_target = None
        if offset is None:
            induction_target = self._induction_offset(target.index)
            if induction_target is None:
                raise InfeasibleVectorization("store subscript is not affine in the iterator")

        if offset is not None:
            current_key = ("cur", array, offset)
            read_current = lambda: self._read_location(array, offset)  # noqa: E731
            address = self._vector_pointer(array, _index_expr(self.iterator, offset))
        else:
            name, const = induction_target
            info = self.inductions[name]
            if abs(info.step) != 1:
                raise InfeasibleVectorization("induction-indexed store with non-unit step")
            updates_seen = self.induction_updates_seen[name]
            total = const + info.step * updates_seen
            current_key = ("cur-ind", array, name, total)
            address = self._vector_pointer(array, _index_expr(name, total))

            def read_current() -> str:
                load = self._load_call(ast.clone_tree(address))
                return self._emit_value(f"{array}_{name}_old", load)

        if expr.op == "=":
            value = self._vectorize_value(expr.value)
        else:
            base_op = expr.op[:-1]
            intrinsic = self._binop_intrinsic(base_op)
            if intrinsic is None:
                raise InfeasibleVectorization(
                    f"compound operator {expr.op!r} has no {self.target.display_name} equivalent"
                )
            current = self.registers.get(current_key)
            if current is None:
                current = read_current()
            rhs = self._vectorize_value(expr.value)
            value = self._emit_value("t", _call(intrinsic, _ident(current), _ident(rhs)))

        if mask is not None:
            old = self.registers.get(current_key)
            if old is None:
                old = read_current()
            value = self._emit_select(old, value, mask)
        self._emit(ast.ExprStmt(expr=self._store_call(address, value)))
        self.registers[current_key] = value


# ---------------------------------------------------------------------------
# reduction finalization and top-level assembly
# ---------------------------------------------------------------------------


def _scalar_ctype(dtype: LaneType) -> CType:
    """The C scalar type matching one lane element type (plain ``int`` for
    the default 32-bit lanes, the sized spelling otherwise)."""
    return INT if dtype is INT32 else CType(dtype.c_name)


def _reduction_finalize(builder: _VectorBodyBuilder) -> list[ast.Stmt]:
    """Horizontal reduction of each accumulator back into its scalar."""
    statements: list[ast.Stmt] = []
    extract = builder.target.intrinsic("extract", builder.dtype)
    for name, acc in builder.accumulators.items():
        operation = builder.reduction_ops[name]
        extracts = [
            _call(extract, _ident(acc), ast.IntLiteral(value=lane))
            for lane in range(builder.lanes)
        ]
        if operation == "+":
            combined: ast.Expr = _ident(name)
            for extract in extracts:
                combined = ast.BinOp(op="+", left=combined, right=extract)
            statements.append(ast.ExprStmt(expr=ast.Assign(op="=", target=_ident(name), value=combined)))
        elif operation == "*":
            combined = _ident(name)
            for extract in extracts:
                combined = ast.BinOp(op="*", left=combined, right=extract)
            statements.append(ast.ExprStmt(expr=ast.Assign(op="=", target=_ident(name), value=combined)))
        else:  # max / min
            comparison = ">" if operation == "max" else "<"
            for lane, extract in enumerate(extracts):
                lane_var = f"vred_{name}_{lane}"
                statements.append(ast.Decl(var_type=_scalar_ctype(builder.dtype),
                                           name=lane_var, init=extract))
                update = ast.If(
                    cond=ast.BinOp(op=comparison, left=_ident(lane_var), right=_ident(name)),
                    then=ast.Block(body=[ast.ExprStmt(expr=ast.Assign(op="=", target=_ident(name), value=_ident(lane_var)))]),
                    otherwise=None,
                )
                statements.append(update)
    return statements


def _collect_identifier_names(func: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Identifier):
            names.add(node.name)
        elif isinstance(node, ast.Decl):
            names.add(node.name)
        elif isinstance(node, ast.Parameter):
            names.add(node.name)
    return names


def _build_masked_tail(plan: VectorizationPlan, iterator: str,
                       existing_names: set[str], loop) -> ast.Stmt:
    """One masked tail iteration retiring the final ``n mod lanes`` elements.

    Builds a per-lane bound mask (lane ``k`` enabled when ``i + k`` is still
    inside the iteration space) and re-emits the loop body with every memory
    access routed through the target's masked loads/stores.  The planner has
    already checked the target can express masked memory; on NEON-class
    targets the request is rejected there with a message naming the gap.
    """
    builder = _VectorBodyBuilder(plan, iterator, existing_names)
    builder.accumulator_decls = []
    lanes = builder.lanes
    ramp = builder._fresh("tail_ramp")
    idx = builder._fresh("tail_idx")
    bound = builder._fresh("tail_bound")
    mask = builder._fresh("tail_mask")
    builder.preload_stmts += [
        builder._vec_decl(ramp, _call(builder._op("setr"),
                                      *[_lit(k) for k in range(lanes)])),
        builder._vec_decl(idx, _call(builder._op("add"),
                                     _call(builder._op("set1"), _ident(iterator)),
                                     _ident(ramp))),
        builder._vec_decl(bound, _call(builder._op("set1"), ast.clone_tree(loop.end))),
        builder._vec_decl(mask, _call(builder._op("cmpgt"),
                                      _ident(bound), _ident(idx))),
    ]
    builder.tail_mask = mask
    builder.build(plan.normalized_body)
    tail_stmts = list(builder.preload_stmts) + list(builder.body_stmts)
    # The scalar epilogue would have left the iterator at the loop bound.
    tail_stmts.append(ast.ExprStmt(expr=ast.Assign(
        op="=", target=_ident(iterator), value=ast.clone_tree(loop.end))))
    guard = ast.BinOp(op="<", left=_ident(iterator), right=ast.clone_tree(loop.end))
    return ast.If(cond=guard, then=ast.Block(body=tail_stmts), otherwise=None)


def _build_predicated_loop_region(func: ast.FunctionDef,
                                  plan: VectorizationPlan) -> ast.Block:
    """The ``"predicated"`` epilogue strategy: one ``whilelt``-governed
    loop replaces the vector loop, the scalar epilogue *and* the masked
    tail.

    The loop predicate ``pg = whilelt(i, n)`` enables exactly the lanes
    still inside the iteration space; every load, store, comparison and
    select in the body is governed by it, so the final partial iteration
    retires the remainder with no separate tail and no trip-count alignment
    assumption — the loop exits when a ``ptest`` finds no active lane left.
    """
    loop = plan.features.main_loop
    iterator = loop.iterator
    builder = _VectorBodyBuilder(plan, iterator, _collect_identifier_names(func))
    lanes = builder.lanes
    builder.accumulator_decls = []
    pg = builder._fresh("pg")
    builder.loop_pred = pg
    builder.build(plan.normalized_body)

    def whilelt_call() -> ast.Call:
        return _call(builder._op("whilelt"), _ident(iterator),
                     ast.clone_tree(loop.end))

    advance = ast.ExprStmt(expr=ast.Assign(
        op="+=", target=_ident(iterator), value=ast.IntLiteral(value=lanes)))
    refresh = ast.ExprStmt(expr=ast.Assign(
        op="=", target=_ident(pg), value=whilelt_call()))
    body = ast.Block(body=list(builder.preload_stmts) + list(builder.body_stmts)
                     + [advance, refresh])

    region: list[ast.Stmt] = []
    if loop.declares_iterator:
        region.append(ast.Decl(var_type=INT, name=iterator,
                               init=ast.clone_tree(loop.start)))
    else:
        region.append(ast.ExprStmt(expr=ast.Assign(
            op="=", target=_ident(iterator), value=ast.clone_tree(loop.start))))
    region.append(builder._pred_decl(pg, whilelt_call()))
    region.append(ast.WhileLoop(
        cond=_call(builder._op("ptest_any"), _ident(pg)), body=body))
    return ast.Block(body=region)


def _build_vector_loop_region(func: ast.FunctionDef, plan: VectorizationPlan) -> ast.Block:
    """Build the block that replaces the original main loop."""
    if plan.epilogue == "predicated":
        return _build_predicated_loop_region(func, plan)
    loop = plan.features.main_loop
    iterator = loop.iterator
    builder = _VectorBodyBuilder(plan, iterator, _collect_identifier_names(func))
    lanes = builder.lanes
    builder.accumulator_decls = []
    builder.build(plan.normalized_body)

    vector_body = ast.Block(body=list(builder.preload_stmts) + list(builder.body_stmts))

    end_minus = ast.BinOp(op="-", left=ast.clone_tree(loop.end), right=ast.IntLiteral(value=lanes - 1))
    vector_cond = ast.BinOp(op=loop.end_op, left=_ident(iterator), right=end_minus)
    vector_step = ast.Assign(op="+=", target=_ident(iterator), value=ast.IntLiteral(value=lanes))
    vector_loop = ast.ForLoop(init=None, cond=vector_cond, step=vector_step, body=vector_body)

    region: list[ast.Stmt] = []
    if loop.declares_iterator:
        region.append(ast.Decl(var_type=INT, name=iterator, init=ast.clone_tree(loop.start)))
    else:
        region.append(ast.ExprStmt(expr=ast.Assign(op="=", target=_ident(iterator),
                                                   value=ast.clone_tree(loop.start))))
    region.extend(builder.accumulator_decls)
    region.append(vector_loop)
    region.extend(_reduction_finalize(builder))
    if plan.epilogue == "masked":
        region.append(_build_masked_tail(plan, iterator, builder.existing_names, loop))
    else:
        epilogue_cond = ast.BinOp(op=loop.end_op, left=_ident(iterator),
                                  right=ast.clone_tree(loop.end))
        epilogue_step = ast.clone_tree(loop.node.step)
        region.append(ast.ForLoop(init=None, cond=epilogue_cond, step=epilogue_step,
                                  body=ast.clone_tree(loop.node.body)))
    return ast.Block(body=region)


def _replace_loop(stmt: ast.Stmt, target: ast.ForLoop, replacement: ast.Block) -> ast.Stmt:
    """Return ``stmt`` with the statement ``target`` replaced by ``replacement``."""
    if stmt is target:
        return replacement
    if isinstance(stmt, ast.Block):
        stmt.body = [_replace_loop(s, target, replacement) for s in stmt.body]
        return stmt
    if isinstance(stmt, ast.If):
        stmt.then = _replace_loop(stmt.then, target, replacement)
        if stmt.otherwise is not None:
            stmt.otherwise = _replace_loop(stmt.otherwise, target, replacement)
        return stmt
    if isinstance(stmt, (ast.ForLoop, ast.WhileLoop, ast.DoWhileLoop)):
        stmt.body = _replace_loop(stmt.body, target, replacement)
        return stmt
    if isinstance(stmt, ast.Label):
        stmt.stmt = _replace_loop(stmt.stmt, target, replacement)
        return stmt
    return stmt


def generate_vectorized_function(func: ast.FunctionDef, plan: VectorizationPlan) -> ast.FunctionDef:
    """Generate the vectorized counterpart of ``func`` according to ``plan``.

    Raises :class:`InfeasibleVectorization` when the plan turns out not to be
    realizable (the planner is optimistic about a few patterns, e.g. min/max
    reductions, that only code generation can fully validate).
    """
    if not plan.feasible or plan.features is None or plan.features.main_loop is None:
        raise InfeasibleVectorization(plan.rejection_text or "no feasible plan")
    region = _build_vector_loop_region(func, plan)
    # Work on a copy of the original function: the original loop node
    # identity is preserved inside the copy via a parallel walk.
    new_func = ast.clone_tree(func)
    original_loop = plan.features.main_loop.node
    target = _find_matching_loop(new_func, func, original_loop)
    new_func.body = _replace_loop(new_func.body, target, region)
    return new_func


def _find_matching_loop(new_func: ast.FunctionDef, old_func: ast.FunctionDef,
                        target: ast.ForLoop) -> ast.ForLoop:
    """Locate, in the deep copy, the loop node corresponding to ``target``."""
    old_loops = [n for n in ast.walk(old_func) if isinstance(n, ast.ForLoop)]
    new_loops = [n for n in ast.walk(new_func) if isinstance(n, ast.ForLoop)]
    for old, new in zip(old_loops, new_loops):
        if old is target:
            return new
    raise InfeasibleVectorization("could not locate the loop to replace")


def vectorize_kernel(func: ast.FunctionDef,
                     target: "TargetISA | str | None" = None,
                     *,
                     epilogue: str = "scalar") -> VectorizationResult | None:
    """Plan and generate SIMD code for ``func`` on ``target`` (default AVX2);
    returns None when infeasible.  ``epilogue`` selects the tail strategy:
    ``"scalar"`` (the default remainder loop), ``"masked"`` (one masked tail
    iteration — targets with masked memory operations only) or
    ``"predicated"`` (a ``whilelt``-governed predicated main loop with no
    epilogue at all — predicate-register targets only)."""
    plan = plan_vectorization(func, get_target(target), epilogue=epilogue)
    if not plan.feasible:
        return None
    try:
        vectorized = generate_vectorized_function(func, plan)
    except InfeasibleVectorization:
        return None
    return VectorizationResult(
        function=vectorized,
        source=function_to_c(vectorized, include_header=True),
        strategy=plan.strategy.value if plan.strategy else "plain",
        plan=plan,
    )
