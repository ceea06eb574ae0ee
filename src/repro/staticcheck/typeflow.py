"""Intrinsic dataflow type checking plus def-use analysis.

One abstract-execution walk over the candidate AST propagates a small value
lattice — vector (with element dtype and lane count), predicate, scalar,
pointer, unknown — through every expression, checking each intrinsic call
against the per-(target, dtype) registry:

* ``unknown-intrinsic`` — a spelling no registered target emits (the
  misspelled-intrinsic compile errors, ``bogus_gather_spelling``);
* ``dtype-mismatch`` — a spelling of the right target at the wrong lane
  element type (an ``epi16`` value feeding an ``epi32`` op), or an operand
  whose inferred dtype conflicts with the op's;
* ``wrong-target`` — another ISA's spelling of an operation the active
  target supports under a different name;
* ``isa-availability`` — another ISA's spelling of an operation the active
  target cannot express at all, reported with the same vocabulary the
  planner uses;
* ``lane-width`` — operand lane counts that disagree with the op's
  register width (including ``setr`` arity vs lane count);
* ``operand-kind`` — a predicate where a vector is required (or vice
  versa), wrong argument counts;
* ``use-before-init`` — a vector or predicate variable read before any
  assignment (the dropped ``setzero``/``ptrue`` accumulator init).

Cross-width spellings of the *same header family* (an AVX2 reduction tail
casting to ``__m128i`` and extracting through the SSE4 spelling) are
legitimate auxiliaries: they type-check against their own spec but raise no
availability diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfront import ast_nodes as ast
from repro.intrinsics.registry import IntrinsicSpec, is_intrinsic, lookup_intrinsic, registry_for
from repro.lanetypes import LaneType
from repro.staticcheck.diagnostics import Severity, StaticReport
from repro.targets import (
    TargetISA,
    dtype_of_spelling,
    resolve_intrinsic,
    vector_type_lanes_for,
)

#: The planner's rejection phrasing for operations a target cannot express
#: (:class:`repro.vectorizer.planner.RejectionReason.UNSUPPORTED_OPERATION`);
#: the availability rule reuses it so feedback reads the same either way.
UNSUPPORTED_PHRASE = "operation has no {isa} integer equivalent"

#: Scalar C library calls the interpreter models (scalar epilogues call
#: these); they are not intrinsic spellings and raise no diagnostic.
_SCALAR_BUILTINS = frozenset({"abs", "labs", "min", "max"})


@dataclass(frozen=True)
class Value:
    """One point of the abstract value lattice."""

    kind: str  # "vec" | "pred" | "scalar" | "ptr" | "unknown"
    dtype: str | None = None
    lanes: int | None = None


SCALAR = Value("scalar")
POINTER = Value("ptr")
UNKNOWN = Value("unknown")
VOID = Value("unknown")


def _vec(dtype: str | None, lanes: int | None) -> Value:
    return Value("vec", dtype=dtype, lanes=lanes)


def _pred(lanes: int | None) -> Value:
    return Value("pred", lanes=lanes)


#: Expected operand shapes per spec kind: "v" vector, "p" predicate,
#: "s" scalar, "a" address/pointer.  ``None`` marks kinds with spelled-out
#: handling (setr/set take ``lanes`` scalars).
_OPERAND_SHAPES: dict[str, str] = {
    "pure_binary": "vv",
    "pure_unary": "v",
    "pure_vector": "vvv",  # truncated to the spec arity (hadd takes 2)
    "pure_imm": "vs",
    "pure_imm2": "vvs",
    "load": "a",
    "store": "av",
    "maskload": "av",
    "maskstore": "avv",
    "set1": "s",
    "setzero": "",
    "index": "ss",
    "extract": "vs",
    "cast_low": "v",
    "ptrue": "",
    "whilelt": "ss",
    "ptest": "p",
    "pred_unary": "pp",
    "pred_binary": "ppp",
    "pred_cmp": "pvv",
    "psel": "pvv",
    "pred_merge_binary": "pvv",
    "pload": "pa",
    "pstore": "pav",
}


class TypeFlow:
    """The abstract evaluator; one instance checks one function."""

    def __init__(self, func: ast.FunctionDef, target: TargetISA,
                 dtype: LaneType, report: StaticReport) -> None:
        self.func = func
        self.target = target
        self.dtype = dtype
        self.report = report
        try:
            self.registry: dict[str, IntrinsicSpec] = registry_for(target, dtype)
        except KeyError:
            self.registry = {}
        self.env: dict[str, Value] = {}
        self.assigned: set[str] = set()
        self._flagged_uninit: set[str] = set()
        self._flagged_calls: set[str] = set()

    # -- entry point --------------------------------------------------------

    def run(self) -> None:
        for param in self.func.params:
            self.env[param.name] = POINTER if param.param_type.is_pointer else SCALAR
            self.assigned.add(param.name)
        self._exec(self.func.body)

    # -- statements ---------------------------------------------------------

    def _exec(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self._exec(inner)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, ast.Decl):
            self._exec_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.cond)
            before = set(self.assigned)
            self._exec(stmt.then)
            after_then = self.assigned
            self.assigned = set(before)
            if stmt.otherwise is not None:
                self._exec(stmt.otherwise)
            after_else = self.assigned
            # Only assignments made on *every* path count as definite.
            self.assigned = before | (after_then & after_else)
        elif isinstance(stmt, ast.ForLoop):
            if stmt.init is not None:
                self._exec(stmt.init)
            if stmt.cond is not None:
                self._eval(stmt.cond)
            self._exec(stmt.body)
            if stmt.step is not None:
                self._eval(stmt.step)
        elif isinstance(stmt, (ast.WhileLoop, ast.DoWhileLoop)):
            self._eval(stmt.cond)
            self._exec(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.Label):
            self._exec(stmt.stmt)
        # Break/Continue/Goto: nothing to evaluate.

    def _exec_decl(self, decl: ast.Decl) -> None:
        declared = self._declared_value(decl)
        if decl.array_size is not None:
            self._eval(decl.array_size)
            self.env[decl.name] = POINTER
            self.assigned.add(decl.name)
            return
        if decl.init is None:
            self.env[decl.name] = declared
            self.assigned.discard(decl.name)
            return
        value = self._eval(decl.init)
        self.env[decl.name] = self._merge_decl(decl, declared, value)
        self.assigned.add(decl.name)

    def _declared_value(self, decl: ast.Decl) -> Value:
        ctype = decl.var_type
        if ctype.is_pointer:
            return POINTER
        if ctype.is_vector:
            lanes = vector_type_lanes_for(ctype.name, self.dtype) or None
            return _vec(None, lanes)
        if ctype.is_predicate:
            return _pred(None)
        return SCALAR

    def _merge_decl(self, decl: ast.Decl, declared: Value, value: Value) -> Value:
        if declared.kind == "vec":
            if value.kind == "pred":
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"vector variable {decl.name!r} initialized from a "
                    f"predicate value", decl)
                return declared
            if value.kind == "vec":
                if (declared.lanes and value.lanes
                        and declared.lanes != value.lanes):
                    self.report.add(
                        "lane-width", Severity.ERROR,
                        f"{decl.var_type.name} {decl.name} holds "
                        f"{declared.lanes} {self.dtype.name} lanes but its "
                        f"initializer produces {value.lanes}", decl)
                return _vec(value.dtype, declared.lanes or value.lanes)
            return declared
        if declared.kind == "pred":
            if value.kind == "vec":
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"predicate variable {decl.name!r} initialized from a "
                    f"data vector", decl)
                return declared
            if value.kind == "pred":
                return value
            return declared
        return declared

    # -- expressions ---------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return SCALAR
        if isinstance(expr, ast.Identifier):
            return self._read(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr)
        if isinstance(expr, ast.ArrayRef):
            self._eval(expr.index)
            if not isinstance(expr.base, ast.Identifier):
                self._eval(expr.base)
            return SCALAR
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "&":
                self._eval_address(expr.operand)
                return POINTER
            operand = self._eval(expr.operand)
            if expr.op == "*":
                return SCALAR if operand.kind == "ptr" else operand
            return operand if operand.kind != "ptr" else SCALAR
        if isinstance(expr, ast.PostfixOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.BinOp):
            self._eval(expr.left)
            self._eval(expr.right)
            return SCALAR
        if isinstance(expr, ast.TernaryOp):
            self._eval(expr.cond)
            then = self._eval(expr.then)
            otherwise = self._eval(expr.otherwise)
            return then if then == otherwise else UNKNOWN
        if isinstance(expr, ast.Cast):
            self._eval(expr.operand)
            ctype = expr.target_type
            if ctype.is_pointer:
                return POINTER
            if ctype.is_vector:
                lanes = vector_type_lanes_for(ctype.name, self.dtype) or None
                return _vec(None, lanes)
            if ctype.is_predicate:
                return _pred(None)
            return SCALAR
        return UNKNOWN

    def _eval_address(self, expr: ast.Expr) -> None:
        """Evaluate the insides of ``&expr`` without kinding the result."""
        if isinstance(expr, ast.ArrayRef):
            self._eval(expr.index)
            if not isinstance(expr.base, ast.Identifier):
                self._eval(expr.base)
            return
        self._eval(expr)

    def _read(self, identifier: ast.Identifier) -> Value:
        name = identifier.name
        value = self.env.get(name, UNKNOWN)
        if (value.kind in ("vec", "pred") and name not in self.assigned
                and name not in self._flagged_uninit):
            self._flagged_uninit.add(name)
            what = "vector" if value.kind == "vec" else "predicate"
            self.report.add(
                "use-before-init", Severity.ERROR,
                f"{what} variable {name!r} is read before any assignment "
                f"(missing accumulator initialization?)", identifier)
        return value

    def _eval_assign(self, assign: ast.Assign) -> Value:
        if assign.op != "=" and isinstance(assign.target, ast.Identifier):
            self._read(assign.target)  # compound assignment reads first
        value = self._eval(assign.value)
        target = assign.target
        if isinstance(target, ast.Identifier):
            declared = self.env.get(target.name)
            if value.kind in ("vec", "pred"):
                if declared is not None and declared.kind in ("vec", "pred"):
                    if declared.kind != value.kind:
                        got = "predicate" if value.kind == "pred" else "data vector"
                        self.report.add(
                            "operand-kind", Severity.ERROR,
                            f"{declared.kind} variable {target.name!r} "
                            f"assigned a {got} value", target)
                    elif (declared.kind == "vec" and declared.lanes
                          and value.lanes and declared.lanes != value.lanes):
                        self.report.add(
                            "lane-width", Severity.ERROR,
                            f"variable {target.name!r} holds {declared.lanes} "
                            f"lanes but is assigned a {value.lanes}-lane "
                            f"value", target)
                    if declared.kind == "vec" and value.kind == "vec":
                        value = _vec(value.dtype, declared.lanes or value.lanes)
                self.env[target.name] = value
            elif declared is None:
                self.env[target.name] = value
            self.assigned.add(target.name)
            return value
        # Array-element or pointer target: evaluate its address parts.
        self._eval_address(target)
        return value

    # -- calls ----------------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> Value:
        spec = self.registry.get(call.func)
        if spec is not None:
            return self._check_against(call, spec)
        return self._foreign_call(call)

    def _foreign_call(self, call: ast.Call) -> Value:
        name = call.func
        if name in _SCALAR_BUILTINS:
            for arg in call.args:
                self._eval(arg)
            return SCALAR
        if not is_intrinsic(name):
            if name not in self._flagged_calls:
                self._flagged_calls.add(name)
                self.report.add(
                    "unknown-intrinsic", Severity.ERROR,
                    f"intrinsic spelling {name!r} belongs to no registered "
                    f"target", call)
            for arg in call.args:
                self._eval(arg)
            return UNKNOWN
        owner, op = resolve_intrinsic(name)
        if owner.name == self.target.name:
            # The active target's own spelling, but absent from the active
            # (target, dtype) registry: it belongs to another element type.
            spelled_dtype = dtype_of_spelling(name)
            if name not in self._flagged_calls:
                self._flagged_calls.add(name)
                spelled = (f"{spelled_dtype.name} spelling"
                           if spelled_dtype is not None
                           else "spelling of another element type")
                self.report.add(
                    "dtype-mismatch", Severity.ERROR,
                    f"{name} is {owner.display_name}'s {spelled} of {op!r}; "
                    f"this kernel models {self.dtype.name} lanes", call)
            for arg in call.args:
                self._eval(arg)
            return UNKNOWN
        if owner.header == self.target.header:
            # Same header family at another register width (AVX2 reduction
            # tails extracting through the SSE4 low half): legitimate
            # auxiliary — type-check against its own spec.
            return self._check_against(call, lookup_intrinsic(name, self.dtype))
        if name not in self._flagged_calls:
            self._flagged_calls.add(name)
            if self.target.supports(op, self.dtype):
                self.report.add(
                    "wrong-target", Severity.ERROR,
                    f"{name} is {owner.display_name}'s spelling of {op!r}; "
                    f"{self.target.display_name} spells it "
                    f"{self.target.intrinsic(op, self.dtype)}", call)
            else:
                phrase = UNSUPPORTED_PHRASE.format(isa=self.target.display_name)
                self.report.add(
                    "isa-availability", Severity.ERROR,
                    f"{name} ({owner.display_name} {op!r}): {phrase}", call)
        for arg in call.args:
            self._eval(arg)
        return UNKNOWN

    def _check_against(self, call: ast.Call, spec: IntrinsicSpec) -> Value:
        values = [self._eval(arg) for arg in call.args]
        if len(values) != spec.arity:
            if spec.kind in ("setr", "set"):
                self.report.add(
                    "lane-width", Severity.ERROR,
                    f"{spec.name} builds a {spec.lanes}-lane {spec.dtype} "
                    f"vector and takes {spec.lanes} scalar arguments, got "
                    f"{len(values)}", call)
            else:
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"{spec.name} takes {spec.arity} arguments, got "
                    f"{len(values)}", call)
            return self._result_of(spec)
        shape = _OPERAND_SHAPES.get(spec.kind)
        if shape is None:
            if spec.kind in ("setr", "set"):
                shape = "s" * spec.arity
            else:
                shape = ""
        for index, (want, value) in enumerate(zip(shape, values)):
            self._check_operand(call, spec, index, want, value)
        return self._result_of(spec)

    def _check_operand(self, call: ast.Call, spec: IntrinsicSpec, index: int,
                       want: str, value: Value) -> None:
        position = f"argument {index + 1} of {spec.name}"
        if want == "v":
            if value.kind == "pred":
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"{position} must be a data vector, got a predicate",
                    call)
            elif value.kind in ("scalar", "ptr"):
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"{position} must be a data vector, got a "
                    f"{'scalar' if value.kind == 'scalar' else 'pointer'}",
                    call)
            elif value.kind == "vec":
                if value.lanes and value.lanes != spec.lanes:
                    self.report.add(
                        "lane-width", Severity.ERROR,
                        f"{position} is a {value.lanes}-lane vector; "
                        f"{spec.name} operates on {spec.lanes} "
                        f"{spec.dtype} lanes", call)
                elif value.dtype and value.dtype != spec.dtype:
                    self.report.add(
                        "dtype-mismatch", Severity.ERROR,
                        f"{position} carries {value.dtype} lanes; "
                        f"{spec.name} operates on {spec.dtype} lanes", call)
        elif want == "p":
            if value.kind == "vec":
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"{position} must be a predicate, got a data vector",
                    call)
            elif value.kind == "scalar":
                self.report.add(
                    "operand-kind", Severity.ERROR,
                    f"{position} must be a predicate, got a scalar", call)
        elif want == "s" and value.kind in ("vec", "pred"):
            self.report.add(
                "operand-kind", Severity.ERROR,
                f"{position} must be a scalar, got a "
                f"{'vector' if value.kind == 'vec' else 'predicate'}",
                call)
        elif want == "a" and value.kind in ("vec", "pred"):
            self.report.add(
                "operand-kind", Severity.ERROR,
                f"{position} must be an address, got a "
                f"{'vector' if value.kind == 'vec' else 'predicate'}",
                call)

    def _result_of(self, spec: IntrinsicSpec) -> Value:
        kind = spec.kind
        if kind in ("store", "maskstore", "pstore"):
            return VOID
        if kind in ("extract", "ptest"):
            return SCALAR
        if kind in ("ptrue", "whilelt", "pred_unary", "pred_binary",
                    "pred_cmp"):
            return _pred(spec.lanes)
        if kind == "cast_low":
            return _vec(spec.dtype, max(1, spec.lanes // 2))
        return _vec(spec.dtype, spec.lanes)


def run_typeflow(func: ast.FunctionDef, target: TargetISA, dtype: LaneType,
                 report: StaticReport) -> None:
    """The pass entry point: dataflow type checking + def-use analysis."""
    TypeFlow(func, target, dtype, report).run()
