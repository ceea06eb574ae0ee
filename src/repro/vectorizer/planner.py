"""Vectorization planning: legality analysis and strategy selection.

The planner decides whether (and how) the rule-based vectorizer can rewrite
the innermost loop of a kernel with the intrinsics of a given target ISA
(AVX2, the paper's setup, is the default).  Its rejection reasons mirror
the failure categories the paper reports for GPT-4 (Section 4.1.3):
loop-carried dependences, packing/one-time dependences, prefix sums,
non-unit strides, gathers/scatters, wrap-around scalars, and unsupported
operations (integer division has no SIMD counterpart on any modelled
target).

Legality is target-dependent in three ways: the dependence-distance window
scales with the target's lane count (a flow dependence of distance 5 blocks
8-lane AVX2 but not a 4-lane target), each operation is checked against the
target's per-op availability table, and masked-tail plans additionally need
masked memory operations, which NEON-class targets cannot express (their
masking is select-based and purely in-register).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.accesses import affine_index
from repro.analysis.features import KernelFeatures, analyze_kernel
from repro.cfront import ast_nodes as ast
from repro.errors import CompileError
from repro.lanetypes import DEFAULT_LANE_TYPE, INT32, LaneType
from repro.targets import DEFAULT_TARGET, TargetISA, get_target
from repro.vectorizer.normalize import normalize_body

#: The three epilogue strategies: the default scalar remainder loop, one
#: masked tail iteration (``"masked"``), or a ``whilelt``-governed predicated
#: main loop that subsumes every tail (``"predicated"``).
EPILOGUE_STRATEGIES = ("scalar", "masked", "predicated")


class RejectionReason(enum.Enum):
    """Why the rule-based vectorizer declined to vectorize a kernel."""

    NO_LOOP = "no for loop found"
    NON_CANONICAL_LOOP = "loop is not in canonical form"
    NON_UNIT_STEP = "loop step is not +1"
    LOOP_CARRIED_FLOW = "loop-carried flow dependence with short distance"
    SCALAR_RECURRENCE = "scalar value carried across iterations"
    WRAPAROUND_SCALAR = "wrap-around scalar needs loop peeling"
    PREFIX_SUM = "running (prefix) value stored every iteration"
    PACKING = "conditional induction update (packing pattern)"
    GATHER_SCATTER = "indirect (gather/scatter) addressing"
    NON_AFFINE_SUBSCRIPT = "array subscript is not affine in the loop iterator"
    STRIDED_SUBSCRIPT = "array subscript has a non-unit coefficient"
    INVARIANT_WRITE = "write to a loop-invariant location inside the loop"
    INVARIANT_READ_OF_WRITTEN = "read of a fixed element of an array that the loop writes"
    UNSUPPORTED_OPERATION = "operation has no {isa} integer equivalent"
    MASKED_MEMORY = ("epilogue='masked' needs masked loads/stores, which {isa} "
                     "cannot express (no masked memory operations; select-based "
                     "masking covers in-register blends only — keep "
                     "epilogue='scalar')")
    MASKED_TAIL_SHAPE = ("epilogue='masked' code generation supports only plain "
                         "and if-converted loops (no reductions, inductions or "
                         "inclusive bounds)")
    MASKED_TAIL_ON_PREDICATED = ("epilogue='masked' is subsumed on {isa}: "
                                 "predicate-governed loops retire the remainder "
                                 "without a separate tail iteration — request "
                                 "epilogue='predicated' instead")
    PREDICATED_LOOP_UNSUPPORTED = ("epilogue='predicated' needs predicate "
                                   "registers governing memory and loop exit "
                                   "(whilelt / ptest / predicated loads and "
                                   "stores), which {isa} cannot express — keep "
                                   "epilogue='scalar' or request "
                                   "epilogue='masked'")
    PREDICATED_LOOP_SHAPE = ("epilogue='predicated' code generation supports "
                             "only plain and if-converted loops (no reductions, "
                             "inductions or inclusive bounds)")
    UNSUPPORTED_CONTROL_FLOW = "control flow too complex for if-conversion"
    EARLY_EXIT = "loop contains an early exit (break/return)"
    NESTED_LOOP_BODY = "inner loop body itself contains a loop"
    UNSUPPORTED_STATEMENT = "statement form not supported by the vectorizer"
    UNSUPPORTED_DTYPE = "kernel element type has no {isa} vector support"
    MIXED_ELEMENT_TYPES = "kernel mixes sized element types; one kernel models one lane element type"


class Strategy(enum.Enum):
    """High-level code-generation strategy."""

    PLAIN = "plain"              # straight-line loads/compute/stores
    BLEND = "blend"              # if-converted with cmp/blendv masks
    REDUCTION = "reduction"      # vector accumulator + horizontal reduction
    INDUCTION = "induction"      # scalar induction variables materialized as vectors


@dataclass
class ReductionInfo:
    """A scalar reduction recognized in the loop body."""

    name: str
    operation: str              # "+", "*", "max", "min"
    initial_scalar: str         # the C name holding the running value


@dataclass
class InductionInfo:
    """A scalar induction variable with a constant per-iteration step."""

    name: str
    step: int


@dataclass
class VectorizationPlan:
    """Everything code generation needs to rewrite the loop."""

    feasible: bool
    strategy: Strategy | None = None
    reason: RejectionReason | None = None
    features: KernelFeatures | None = None
    normalized_body: ast.Stmt | None = None
    reductions: list[ReductionInfo] = field(default_factory=list)
    inductions: list[InductionInfo] = field(default_factory=list)
    has_conditionals: bool = False
    #: local int temporaries declared inside the body (scalar expansion targets)
    local_temporaries: list[str] = field(default_factory=list)
    #: The ISA this plan was made for (lane count, intrinsic naming, op set).
    target: TargetISA = DEFAULT_TARGET
    #: The lane element type the kernel declares (``int16_t``/``int``/
    #: ``int64_t``); lane counts, op availability and intrinsic spellings
    #: all follow it.
    dtype: LaneType = DEFAULT_LANE_TYPE
    #: The epilogue strategy this plan carries: ``"scalar"`` (the default
    #: remainder loop), ``"masked"`` (one masked tail iteration — needs the
    #: target's masked loads/stores) or ``"predicated"`` (a ``whilelt``-
    #: governed predicated loop replacing the vector loop *and* every
    #: epilogue).  Legality is checked at planning time.
    epilogue: str = "scalar"

    @property
    def rejection_text(self) -> str:
        if self.reason is None:
            return ""
        text = self.reason.value.format(isa=self.target.display_name)
        if (self.reason is RejectionReason.UNSUPPORTED_OPERATION
                and self.dtype is not INT32):
            # Name the element type when the gap is dtype-specific (AVX2 has
            # int32 mul but no int64 one, say); the int32 wording is pinned.
            text = text.replace("integer equivalent",
                                f"{self.dtype.name} equivalent")
        return text


def _reject(reason: RejectionReason, features: KernelFeatures | None = None,
            target: TargetISA = DEFAULT_TARGET,
            dtype: LaneType = DEFAULT_LANE_TYPE) -> VectorizationPlan:
    return VectorizationPlan(feasible=False, reason=reason, features=features,
                             target=target, dtype=dtype)


def plan_vectorization(func: ast.FunctionDef,
                       target: TargetISA | str | None = None,
                       *,
                       epilogue: str = "scalar") -> VectorizationPlan:
    """Analyze ``func`` and return a vectorization plan or a rejection.

    ``target`` selects the ISA whose lane count and operation set legality is
    judged against; the default is the paper's AVX2 setup.  ``epilogue`` is
    one of three strategies: ``"scalar"`` (the default remainder loop),
    ``"masked"`` (one masked tail iteration — targets with masked memory
    operations only), or ``"predicated"`` (a ``whilelt``-governed main loop
    that subsumes both the vector-loop bound adjustment and every tail —
    predicate-register targets only).  Both non-default strategies support
    plain/if-converted loop shapes only.
    """
    if epilogue not in EPILOGUE_STRATEGIES:
        raise ValueError(f"unknown epilogue strategy {epilogue!r}; expected "
                         f"one of {EPILOGUE_STRATEGIES}")
    isa = get_target(target)
    try:
        dtype = ast.kernel_dtype(func)
    except CompileError:
        return _reject(RejectionReason.MIXED_ELEMENT_TYPES, None, isa)
    if not isa.supports_dtype(dtype):
        return _reject(RejectionReason.UNSUPPORTED_DTYPE, None, isa, dtype)
    features = analyze_kernel(func)
    loop = features.main_loop
    if loop is None:
        return _reject(RejectionReason.NO_LOOP, features, isa, dtype)
    if not loop.is_canonical:
        return _reject(RejectionReason.NON_CANONICAL_LOOP, features, isa, dtype)
    if loop.step != 1 or loop.end_op not in ("<", "<="):
        return _reject(RejectionReason.NON_UNIT_STEP, features, isa, dtype)

    body = normalize_body(loop.body)
    checker = _BodyChecker(loop.iterator, func, isa, dtype)
    plan = checker.check(body, features)
    if plan.feasible and epilogue == "masked":
        return _check_masked_epilogue(plan, loop)
    if plan.feasible and epilogue == "predicated":
        return _check_predicated_loop(plan, loop)
    return plan


def _check_masked_epilogue(plan: VectorizationPlan, loop) -> VectorizationPlan:
    """Validate that the feasible ``plan`` can also carry a masked tail.

    The tail trades the scalar epilogue for masked loads/stores over the
    final partial block, so the target must be able to express masked memory
    at all — on NEON-class targets the rejection names that gap explicitly,
    and on predicate-first targets it points at the strictly stronger
    ``"predicated"`` strategy instead — and the loop shape must be one
    the tail generator handles (reductions and induction vectors would need
    masked accumulator merges).
    """
    isa = plan.target
    if isa.has_predicated_loops:
        return _reject(RejectionReason.MASKED_TAIL_ON_PREDICATED, plan.features, isa, plan.dtype)
    if not (isa.has_masked_memory
            and isa.supports("maskload", plan.dtype)
            and isa.supports("maskstore", plan.dtype)):
        return _reject(RejectionReason.MASKED_MEMORY, plan.features, isa, plan.dtype)
    if plan.reductions or plan.inductions or loop.end_op != "<":
        return _reject(RejectionReason.MASKED_TAIL_SHAPE, plan.features, isa, plan.dtype)
    plan.epilogue = "masked"
    return plan


def _check_predicated_loop(plan: VectorizationPlan, loop) -> VectorizationPlan:
    """Validate that the feasible ``plan`` can run as one predicated loop.

    A ``whilelt``-governed loop needs predicate registers end to end —
    predicate construction, a ``ptest`` loop exit, and predicate-governed
    loads and stores; targets whose masking is data-vector based (x86, NEON)
    are rejected with a message naming the gap.  The shape restriction
    matches the masked tail's: reductions and induction vectors would need
    predicated accumulator merges the generator does not emit.
    """
    isa = plan.target
    if not isa.has_predicated_loops:
        return _reject(RejectionReason.PREDICATED_LOOP_UNSUPPORTED, plan.features, isa, plan.dtype)
    if plan.reductions or plan.inductions or loop.end_op != "<":
        return _reject(RejectionReason.PREDICATED_LOOP_SHAPE, plan.features, isa, plan.dtype)
    plan.epilogue = "predicated"
    return plan


class _BodyChecker:
    """Walks the (normalized) loop body and validates it statement by statement."""

    def __init__(self, iterator: str, func: ast.FunctionDef,
                 target: TargetISA = DEFAULT_TARGET,
                 dtype: LaneType = DEFAULT_LANE_TYPE):
        self.iterator = iterator
        self.func = func
        self.target = target
        self.dtype = dtype
        self.width = target.lanes_for(dtype)
        self.outer_scalars = self._collect_outer_scalars(func)
        self.local_temporaries: list[str] = []
        self.reductions: dict[str, ReductionInfo] = {}
        self.inductions: dict[str, InductionInfo] = {}
        self.has_conditionals = False
        self.writes: list[tuple[str, int]] = []      # (array, offset)
        self.reads: list[tuple[str, int]] = []       # (array, offset), affine only
        self.invariant_reads: dict[str, bool] = {}   # array -> read at invariant index
        self.rejection: RejectionReason | None = None

    # -- public -----------------------------------------------------------------

    def check(self, body: ast.Stmt, features: KernelFeatures) -> VectorizationPlan:
        self._check_stmt(body, conditional=False)
        if self.rejection is None:
            self._check_dependences()
        if self.rejection is not None:
            return _reject(self.rejection, features, self.target, self.dtype)

        strategy = Strategy.PLAIN
        if self.reductions:
            strategy = Strategy.REDUCTION
        elif self.inductions:
            strategy = Strategy.INDUCTION
        elif self.has_conditionals:
            strategy = Strategy.BLEND
        return VectorizationPlan(
            feasible=True,
            strategy=strategy,
            features=features,
            normalized_body=body,
            reductions=list(self.reductions.values()),
            inductions=list(self.inductions.values()),
            has_conditionals=self.has_conditionals,
            local_temporaries=list(self.local_temporaries),
            target=self.target,
            dtype=self.dtype,
        )

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _collect_outer_scalars(func: ast.FunctionDef) -> set[str]:
        """Names of integer scalars declared outside the main loop (including params)."""
        names = {p.name for p in func.params if not p.param_type.is_pointer}
        for stmt in func.body.body:
            if isinstance(stmt, ast.Decl) and not stmt.var_type.is_pointer and stmt.array_size is None:
                names.add(stmt.name)
        return names

    def _fail(self, reason: RejectionReason) -> None:
        if self.rejection is None:
            self.rejection = reason

    def _require_ops(self, *ops: str) -> bool:
        """Check the target can express every generic op; fail otherwise."""
        for op in ops:
            if not self.target.supports(op, self.dtype):
                self._fail(RejectionReason.UNSUPPORTED_OPERATION)
                return False
        return True

    def _require_mask_ops(self) -> bool:
        """If-conversion needs compares and a select — either the data-vector
        flavour (cmp masks + blend) or the predicate-first flavour
        (predicate-producing compares + predicate-selected blend)."""
        if all(self.target.supports(op, self.dtype)
               for op in ("pcmpgt", "pcmpeq", "psel")):
            return True
        return self._require_ops("cmpgt", "cmpeq", "select")

    # -- statement checking ----------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt, conditional: bool) -> None:
        if self.rejection is not None:
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self._check_stmt(inner, conditional)
            return
        if isinstance(stmt, ast.Decl):
            if stmt.var_type.is_pointer or stmt.array_size is not None or stmt.var_type.is_vector:
                self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
                return
            self.local_temporaries.append(stmt.name)
            if stmt.init is not None:
                self._check_value_expr(stmt.init)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._check_top_expr(stmt.expr, conditional)
            return
        if isinstance(stmt, ast.If):
            self.has_conditionals = True
            # If-conversion needs compare masks and a select on the target.
            if not self._require_mask_ops():
                return
            self._check_condition(stmt.cond)
            self._check_stmt(stmt.then, conditional=True)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, conditional=True)
            return
        if isinstance(stmt, (ast.Break, ast.Return)):
            self._fail(RejectionReason.EARLY_EXIT)
            return
        if isinstance(stmt, (ast.Goto, ast.Label)):
            self._fail(RejectionReason.UNSUPPORTED_CONTROL_FLOW)
            return
        if isinstance(stmt, (ast.ForLoop, ast.WhileLoop, ast.DoWhileLoop)):
            self._fail(RejectionReason.NESTED_LOOP_BODY)
            return
        if isinstance(stmt, ast.Continue):
            self._fail(RejectionReason.UNSUPPORTED_CONTROL_FLOW)
            return
        self._fail(RejectionReason.UNSUPPORTED_STATEMENT)

    def _check_top_expr(self, expr: ast.Expr, conditional: bool) -> None:
        """A statement-level expression: assignment or increment."""
        if isinstance(expr, ast.Assign):
            self._check_assignment(expr, conditional)
            return
        if isinstance(expr, (ast.PostfixOp, ast.UnaryOp)) and expr.op in ("++", "--"):
            target = expr.operand
            if isinstance(target, ast.Identifier):
                self._record_scalar_update(target.name, 1 if expr.op == "++" else -1, conditional)
                return
        self._fail(RejectionReason.UNSUPPORTED_STATEMENT)

    def _check_assignment(self, expr: ast.Assign, conditional: bool) -> None:
        target = expr.target
        if isinstance(target, ast.Identifier):
            self._check_scalar_assignment(target.name, expr, conditional)
            return
        if isinstance(target, ast.ArrayRef):
            self._check_array_write(target)
            self._check_value_expr(expr.value)
            return
        self._fail(RejectionReason.UNSUPPORTED_STATEMENT)

    def _check_scalar_assignment(self, name: str, expr: ast.Assign, conditional: bool) -> None:
        if name in self.local_temporaries:
            # Scalar expansion target; any vectorizable value is fine.
            self._check_value_expr(expr.value)
            if expr.op != "=":
                pass  # compound update of a per-iteration temporary is still per-iteration
            return
        if name not in self.outer_scalars:
            # A scalar that was never declared: treat as unsupported.
            self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
            return
        # A scalar declared outside the loop is being updated inside it.
        if expr.op in ("+=", "-="):
            step = _constant_of(expr.value)
            if step is not None:
                self._record_scalar_update(name, step if expr.op == "+=" else -step, conditional)
                return
            if expr.op == "+=" and not _mentions(expr.value, name):
                self._record_reduction(name, "+", conditional, expr.value)
                return
            self._fail(RejectionReason.SCALAR_RECURRENCE)
            return
        if expr.op == "*=":
            if not _mentions(expr.value, name):
                self._record_reduction(name, "*", conditional, expr.value)
                return
            self._fail(RejectionReason.SCALAR_RECURRENCE)
            return
        if expr.op == "=":
            # ``x = a[i]``-style overwrite under a max/min guard is handled by
            # the caller (_check_stmt sees the If); a bare overwrite of an
            # outer scalar is a wrap-around/recurrence pattern we reject.
            if _mentions(expr.value, name):
                self._record_reduction(name, "+", conditional, expr.value)
                if not _is_simple_accumulation(expr.value, name):
                    self._fail(RejectionReason.SCALAR_RECURRENCE)
                return
            if self._looks_like_minmax_update(name, expr):
                return
            self._fail(RejectionReason.WRAPAROUND_SCALAR)
            return
        self._fail(RejectionReason.SCALAR_RECURRENCE)

    def _looks_like_minmax_update(self, name: str, expr: ast.Assign) -> bool:
        """Recognize the body of ``if (v > x) x = v;`` min/max reductions."""
        # The If wrapper has already set has_conditionals; here we only see
        # the assignment.  We record a max/min reduction optimistically; the
        # code generator re-validates the guard shape and the planner's
        # dependence check still applies.
        if not self.has_conditionals:
            return False
        self.reductions[name] = ReductionInfo(name=name, operation="max", initial_scalar=name)
        return True

    def _record_scalar_update(self, name: str, step: int, conditional: bool) -> None:
        if name == self.iterator:
            return
        if name not in self.outer_scalars and name not in self.local_temporaries:
            self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
            return
        if conditional:
            self._fail(RejectionReason.PACKING)
            return
        existing = self.inductions.get(name)
        if existing is not None:
            self._fail(RejectionReason.SCALAR_RECURRENCE)
            return
        self.inductions[name] = InductionInfo(name=name, step=step)

    def _record_reduction(self, name: str, operation: str, conditional: bool, value: ast.Expr) -> None:
        self._check_value_expr(value)
        existing = self.reductions.get(name)
        if existing is not None and existing.operation != operation:
            self._fail(RejectionReason.SCALAR_RECURRENCE)
            return
        self.reductions[name] = ReductionInfo(name=name, operation=operation, initial_scalar=name)

    # -- expression checking -------------------------------------------------------------

    def _check_array_write(self, target: ast.ArrayRef) -> None:
        array = _array_name(target.base)
        if array is None:
            self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
            return
        index = affine_index(target.index, self.iterator)
        if index.symbolic:
            induction = self._induction_index(target.index)
            if induction is not None:
                self.writes.append((array, 0))
                return
            if _contains_array_ref(target.index):
                self._fail(RejectionReason.GATHER_SCATTER)
            else:
                self._fail(RejectionReason.NON_AFFINE_SUBSCRIPT)
            return
        if not index.is_iterator_affine:
            self._fail(RejectionReason.INVARIANT_WRITE)
            return
        if index.coefficient != 1:
            self._fail(RejectionReason.STRIDED_SUBSCRIPT)
            return
        self.writes.append((array, index.offset))

    def _check_value_expr(self, expr: ast.Expr) -> None:
        if self.rejection is not None:
            return
        if isinstance(expr, ast.IntLiteral):
            return
        if isinstance(expr, ast.Identifier):
            return
        if isinstance(expr, ast.ArrayRef):
            array = _array_name(expr.base)
            if array is None:
                self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
                return
            index = affine_index(expr.index, self.iterator)
            if index.symbolic:
                if self._induction_index(expr.index) is not None:
                    self.reads.append((array, 0))
                    return
                if _contains_array_ref(expr.index):
                    self._fail(RejectionReason.GATHER_SCATTER)
                else:
                    # Loop-invariant symbolic index (e.g. c[k]): fine for reads.
                    self.invariant_reads[array] = True
                return
            if not index.is_iterator_affine:
                self.invariant_reads[array] = True
                return
            if index.coefficient != 1:
                self._fail(RejectionReason.STRIDED_SUBSCRIPT)
                return
            self.reads.append((array, index.offset))
            return
        if isinstance(expr, ast.BinOp):
            if expr.op in ("/", "%", "<<", ">>"):
                if expr.op == "/" and isinstance(expr.right, ast.IntLiteral):
                    self._fail(RejectionReason.UNSUPPORTED_OPERATION)
                    return
                self._fail(RejectionReason.UNSUPPORTED_OPERATION)
                return
            if expr.op in ("&&", "||", "<", ">", "<=", ">=", "==", "!="):
                self._check_condition(expr)
                return
            if expr.op == "*" and not self._require_ops("mul"):
                return
            self._check_value_expr(expr.left)
            self._check_value_expr(expr.right)
            return
        if isinstance(expr, ast.UnaryOp):
            if expr.op in ("-", "+", "~"):
                self._check_value_expr(expr.operand)
                return
            self._fail(RejectionReason.UNSUPPORTED_OPERATION)
            return
        if isinstance(expr, ast.TernaryOp):
            self.has_conditionals = True
            if not self._require_mask_ops():
                return
            self._check_condition(expr.cond)
            self._check_value_expr(expr.then)
            self._check_value_expr(expr.otherwise)
            return
        if isinstance(expr, ast.Call):
            if expr.func in ("abs", "max", "min"):
                if not self._require_ops(expr.func):
                    return
                for arg in expr.args:
                    self._check_value_expr(arg)
                return
            self._fail(RejectionReason.UNSUPPORTED_OPERATION)
            return
        if isinstance(expr, ast.Assign):
            self._fail(RejectionReason.UNSUPPORTED_STATEMENT)
            return
        self._fail(RejectionReason.UNSUPPORTED_STATEMENT)

    def _check_condition(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.BinOp) and expr.op in ("<", ">", "<=", ">=", "==", "!="):
            self._check_value_expr(expr.left)
            self._check_value_expr(expr.right)
            return
        if isinstance(expr, ast.BinOp) and expr.op in ("&&", "||"):
            self._fail(RejectionReason.UNSUPPORTED_CONTROL_FLOW)
            return
        # A bare value used as a condition (``if (b[i])``).
        self._check_value_expr(expr)

    def _induction_index(self, expr: ast.Expr) -> str | None:
        """Return the induction variable name if ``expr`` is ``var`` or ``var +/- const``."""
        if isinstance(expr, ast.Identifier) and expr.name in self.inductions:
            return expr.name
        if (
            isinstance(expr, ast.BinOp)
            and expr.op in ("+", "-")
            and isinstance(expr.left, ast.Identifier)
            and expr.left.name in self.inductions
            and isinstance(expr.right, ast.IntLiteral)
        ):
            return expr.left.name
        return None

    # -- dependence legality -----------------------------------------------------------------

    def _check_dependences(self) -> None:
        """Reject loop-carried flow dependences with distance below the lane count.

        The window scales with the target: a distance-5 dependence blocks
        8-lane AVX2 and 16-lane AVX-512 but is legal for 4-lane SSE4.
        """
        written_arrays = {array for array, _ in self.writes}
        for array, read_offset in self.reads:
            if array not in written_arrays:
                continue
            for write_array, write_offset in self.writes:
                if write_array != array:
                    continue
                distance = write_offset - read_offset
                if 1 <= distance < self.width:
                    self._fail(RejectionReason.LOOP_CARRIED_FLOW)
                    return
        # Overlapping writes across iterations (write-after-write with a short
        # distance, e.g. s244's stores to a[i] and a[i+1]) change which store
        # lands last once a lane-count block of iterations is issued as block
        # stores.
        for index, (array_a, offset_a) in enumerate(self.writes):
            for array_b, offset_b in self.writes[index + 1 :]:
                if array_a != array_b:
                    continue
                if 0 < abs(offset_a - offset_b) < self.width:
                    self._fail(RejectionReason.LOOP_CARRIED_FLOW)
                    return
        for array in self.invariant_reads:
            if array in written_arrays:
                self._fail(RejectionReason.INVARIANT_READ_OF_WRITTEN)
                return
        # Conditional induction updates were already rejected as PACKING; an
        # induction variable together with conditionals is only supported when
        # the induction update is unconditional (checked at record time).


def _constant_of(expr: ast.Expr) -> int | None:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-" and isinstance(expr.operand, ast.IntLiteral):
        return -expr.operand.value
    return None


def _mentions(expr: ast.Expr, name: str) -> bool:
    return any(isinstance(n, ast.Identifier) and n.name == name for n in ast.walk(expr))


def _is_simple_accumulation(expr: ast.Expr, name: str) -> bool:
    """True for ``name + <expr-not-mentioning-name>`` shapes."""
    if isinstance(expr, ast.BinOp) and expr.op == "+":
        left_is_name = isinstance(expr.left, ast.Identifier) and expr.left.name == name
        right_is_name = isinstance(expr.right, ast.Identifier) and expr.right.name == name
        if left_is_name and not _mentions(expr.right, name):
            return True
        if right_is_name and not _mentions(expr.left, name):
            return True
    return False


def _array_name(expr: ast.Expr) -> str | None:
    if isinstance(expr, ast.Identifier):
        return expr.name
    return None


def _contains_array_ref(expr: ast.Expr) -> bool:
    return any(isinstance(n, ast.ArrayRef) for n in ast.walk(expr))
