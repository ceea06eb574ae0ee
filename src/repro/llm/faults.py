"""Fault model: the mistake classes the synthetic LLM injects into candidates.

The paper's qualitative analysis (Sections 4.1.3 and 4.4.2) identifies the
recurring GPT-4 failure modes: mishandled loop-carried dependences and
induction variables (the s453 first attempt), unsafe hoisting out of
conditionals, code that does not compile, and subtle bugs that survive
checksum testing but are caught by symbolic verification (the s124 story).
Each :class:`FaultKind` below reproduces one of those modes as a concrete
program transformation applied to an otherwise-correct vectorization, so the
downstream tools (checksum tester, translation validator, agents) are
exercised against *real* buggy programs rather than labels.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.cfront import ast_nodes as ast
from repro.cfront.printer import function_to_c
from repro.memo import Memo
from repro.targets import ALL_TARGETS, TargetISA, resolve_intrinsic


class FaultKind(enum.Enum):
    """A class of LLM mistake, with how the pipeline typically experiences it."""

    #: Misspelled intrinsic: the candidate does not compile (Table 2 row 3).
    COMPILE_ERROR = "compile_error"
    #: An arithmetic intrinsic replaced by another: caught by checksum testing.
    WRONG_OPERATOR = "wrong_operator"
    #: Induction vector built naively (the paper's s453 first attempt): caught
    #: by checksum testing and repairable from its feedback.
    NAIVE_INDUCTION = "naive_induction"
    #: A masked (if-converted) store made unconditional (unsafe hoisting):
    #: caught by checksum testing.
    UNSAFE_HOIST = "unsafe_hoist"
    #: A strict comparison relaxed to non-strict: usually invisible to random
    #: testing (needs a tie) but refuted by symbolic verification.
    CMP_OFF_BY_ONE = "cmp_off_by_one"
    #: The scalar epilogue loop dropped: correct only when the trip count is a
    #: multiple of the vector width.
    MISSING_EPILOGUE = "missing_epilogue"
    #: An accumulator's ``setzero`` initialization dropped.  The reference
    #: interpreter zero-fills uninitialized vector locals, so execution-based
    #: testing cannot see this one at all — it exists for the static vetter's
    #: ``use-before-init`` rule (a real compiler would read garbage).
    DROP_ACC_INIT = "drop_acc_init"
    #: A predicated store's ``whilelt`` governor replaced with an all-true
    #: predicate: every full-width iteration is unchanged, but the final
    #: partial iteration writes all lanes past the extent.
    UNGOVERNED_MEMORY = "ungoverned_memory"


#: Faults that the repair loop can plausibly fix once the tester reports a
#: mismatch (they are localized and the feedback pinpoints them).
REPAIRABLE_FAULTS = frozenset(
    {FaultKind.WRONG_OPERATOR, FaultKind.NAIVE_INDUCTION, FaultKind.UNSAFE_HOIST,
     FaultKind.COMPILE_ERROR}
)


@dataclass
class FaultProfile:
    """Per-request fault probabilities.

    ``base_fault_rate`` is the probability that a completion receives at
    least one fault; ``kind_weights`` selects which one.  The rates drop when
    dependence-analysis context is present (the agents' prompts) and when
    tester feedback identifies the previous fault — this is the calibrated
    mechanism behind the multi-agent FSM improvements of Section 4.4.
    """

    base_fault_rate: float = 0.32
    with_dependence_info_rate: float = 0.18
    with_feedback_rate: float = 0.12
    kind_weights: dict[FaultKind, float] = field(default_factory=lambda: {
        FaultKind.COMPILE_ERROR: 0.12,
        FaultKind.WRONG_OPERATOR: 0.22,
        FaultKind.NAIVE_INDUCTION: 0.16,
        FaultKind.UNSAFE_HOIST: 0.16,
        FaultKind.CMP_OFF_BY_ONE: 0.22,
        FaultKind.MISSING_EPILOGUE: 0.12,
        # Statically-visible kinds are not part of the calibrated mix (their
        # zero weight keeps every seeded campaign's rng stream unchanged);
        # tests and fault-corpus tooling inject them via apply_fault directly.
        FaultKind.DROP_ACC_INIT: 0.0,
        FaultKind.UNGOVERNED_MEMORY: 0.0,
    })

    def fault_rate(self, has_dependence_info: bool, has_feedback: bool) -> float:
        if has_feedback:
            return self.with_feedback_rate
        if has_dependence_info:
            return self.with_dependence_info_rate
        return self.base_fault_rate

    def sample_kind(self, rng: random.Random, applicable: list["FaultKind"]) -> "FaultKind" | None:
        candidates = [(kind, self.kind_weights.get(kind, 0.0)) for kind in applicable]
        total = sum(weight for _, weight in candidates)
        if total <= 0:
            return None
        pick = rng.uniform(0, total)
        accumulated = 0.0
        for kind, weight in candidates:
            accumulated += weight
            if pick <= accumulated:
                return kind
        return candidates[-1][0]


# ---------------------------------------------------------------------------
# fault application
# ---------------------------------------------------------------------------

#: Spelling data derived from the registered targets.  No prefix matching
#: and no string surgery: the bidirectional op <-> name mapping lives with
#: each :class:`~repro.targets.TargetISA`, so a backend whose names share
#: nothing with the x86 grammar (NEON) participates automatically, and an
#: unknown spelling raises :class:`~repro.targets.UnknownIntrinsicName`
#: instead of being silently mutated into another ISA's name.  Predicate-
#: first targets (SVE) have no data-vector ``select``/``cmpgt`` at all, so
#: each mutation carries a predicate-aware twin over ``psel``/``pcmpgt``,
#: again respelled through the owning ISA.
def _spellings(op: str) -> frozenset[str]:
    return frozenset(t.intrinsic(op) for t in ALL_TARGETS if t.supports(op))


_OPERATOR_SWAPS = {
    t.intrinsic(a): t.intrinsic(b)
    for t in ALL_TARGETS
    for a, b in (("add", "sub"), ("sub", "add"), ("mul", "add"))
    if t.supports(a) and t.supports(b)
}

_SELECT_NAMES = _spellings("select")
_PSEL_NAMES = _spellings("psel")
_CMPGT_NAMES = _spellings("cmpgt")
_PCMPGT_NAMES = _spellings("pcmpgt")
_SETR_NAMES = _spellings("setr")
_INDEX_NAMES = _spellings("index")
_SETZERO_NAMES = _spellings("setzero")
_PSTORE_NAMES = _spellings("pstore")
_WHILELT_NAMES = _spellings("whilelt")

#: Setr arities a ramp can legitimately have (one per registered width).
_RAMP_ARITIES = {t.lanes for t in ALL_TARGETS}


def _target_of(name: str) -> TargetISA:
    """The target ISA owning an intrinsic spelling.

    Raises :class:`~repro.targets.UnknownIntrinsicName` for spellings no
    registered target emits — a fault mutation must never respell a
    candidate into a different ISA.
    """
    isa, _op = resolve_intrinsic(name)
    return isa


def _zero_call(isa: TargetISA) -> ast.Call:
    name, args = isa.zero_call()
    return ast.Call(func=name, args=[ast.IntLiteral(value=arg) for arg in args])


#: ``applicable_faults`` is pure in its source text, and the synthetic LLM
#: asks about the same (plan-cached) candidate once per faulty attempt.
_APPLICABLE_MEMO = Memo(1024)


def applicable_faults(vectorized_source: str) -> list[FaultKind]:
    """Which fault kinds can be expressed on this particular candidate."""
    faults = _APPLICABLE_MEMO.get(vectorized_source)
    if faults is None:
        faults = _APPLICABLE_MEMO.put(vectorized_source,
                                      _applicable_faults_uncached(vectorized_source))
    return list(faults)


def _applicable_faults_uncached(vectorized_source: str) -> list[FaultKind]:
    faults = [FaultKind.COMPILE_ERROR]
    if any(name in vectorized_source for name in _OPERATOR_SWAPS):
        faults.append(FaultKind.WRONG_OPERATOR)
    if any(name in vectorized_source for name in _SETR_NAMES | _INDEX_NAMES):
        faults.append(FaultKind.NAIVE_INDUCTION)
    if any(name in vectorized_source for name in _SELECT_NAMES | _PSEL_NAMES):
        faults.append(FaultKind.UNSAFE_HOIST)
    if any(name in vectorized_source for name in _CMPGT_NAMES | _PCMPGT_NAMES):
        faults.append(FaultKind.CMP_OFF_BY_ONE)
    if _count_for_loops(vectorized_source) >= 2:
        faults.append(FaultKind.MISSING_EPILOGUE)
    # New kinds stay at the end of the list: sample_kind accumulates weights
    # in list order, so appending (zero-weight) kinds preserves the exact rng
    # stream of every seeded campaign recorded before they existed.
    if any(name in vectorized_source for name in _SETZERO_NAMES):
        faults.append(FaultKind.DROP_ACC_INIT)
    if any(name in vectorized_source for name in _PSTORE_NAMES) and any(
            name in vectorized_source for name in _WHILELT_NAMES):
        faults.append(FaultKind.UNGOVERNED_MEMORY)
    return faults


def _count_for_loops(source: str) -> int:
    # Read-only walk, so the shared-AST cache is safe here.
    from repro.vectorizer.plancache import cached_parse

    try:
        func = cached_parse(source)
    except Exception:
        return 0
    return sum(1 for node in ast.walk(func) if isinstance(node, ast.ForLoop))


def apply_fault(vectorized_source: str, kind: FaultKind, rng: random.Random) -> str:
    """Return a mutated copy of ``vectorized_source`` exhibiting ``kind``.

    If the requested mutation turns out not to apply (e.g. no blend to
    un-guard), the source is returned unchanged; callers treat that as "no
    fault injected".
    """
    if kind is FaultKind.COMPILE_ERROR:
        return _inject_compile_error(vectorized_source, rng)
    # A private copy of the shared tree: the mutators below edit in place,
    # and the shared AST must never be touched.
    from repro.vectorizer.plancache import cached_parse

    func = ast.clone_tree(cached_parse(vectorized_source))
    if kind is FaultKind.WRONG_OPERATOR:
        changed = _swap_one_operator(func, rng)
    elif kind is FaultKind.NAIVE_INDUCTION:
        changed = _naive_induction(func)
    elif kind is FaultKind.UNSAFE_HOIST:
        changed = _unsafe_hoist(func, rng)
    elif kind is FaultKind.CMP_OFF_BY_ONE:
        changed = _relax_comparison(func, rng)
    elif kind is FaultKind.MISSING_EPILOGUE:
        changed = _drop_epilogue(func)
    elif kind is FaultKind.DROP_ACC_INIT:
        changed = _drop_acc_init(func)
    elif kind is FaultKind.UNGOVERNED_MEMORY:
        changed = _ungoverned_store(func, rng)
    else:  # pragma: no cover - defensive
        changed = False
    if not changed:
        return vectorized_source
    return function_to_c(func, include_header=True)


def _inject_compile_error(source: str, rng: random.Random) -> str:
    """Misspell one intrinsic so the candidate fails to compile."""
    for op in ("loadu", "pload", "add", "mul", "storeu", "pstore", "set1"):
        for isa in ALL_TARGETS:
            if not isa.supports(op):
                continue
            name = isa.intrinsic(op)
            if name in source:
                return source.replace(name, name + "x", 1)
    return source + "\n/* missing translation unit */ int __undefined_symbol = undeclared_variable;\n"


def _calls(func: ast.FunctionDef, names: set[str]) -> list[ast.Call]:
    return [node for node in ast.walk(func) if isinstance(node, ast.Call) and node.func in names]


def _swap_one_operator(func: ast.FunctionDef, rng: random.Random) -> bool:
    calls = _calls(func, set(_OPERATOR_SWAPS))
    if not calls:
        return False
    target = rng.choice(calls)
    target.func = _OPERATOR_SWAPS[target.func]
    return True


def _naive_induction(func: ast.FunctionDef) -> bool:
    """Replace a ramp constructor with a constant splat of its first element.

    This reproduces the paper's s453 first attempt, where the induction
    vector was initialized as if a single scalar update covered all the
    lanes.  On x86/NEON the ramp is a ``setr`` with one argument per lane;
    on SVE it is ``svindex(base, step)``, which degrades to ``svdup(base)``
    — the same bug respelled through the owning ISA.
    """
    calls = _calls(func, _SETR_NAMES)
    ramps = [c for c in calls if len(c.args) in _RAMP_ARITIES]
    if ramps:
        ramp = ramps[0]
        first = ramp.args[0]
        ramp.args = [first] * len(ramp.args)
        return True
    index_calls = _calls(func, _INDEX_NAMES)
    if not index_calls:
        return False
    ramp = index_calls[0]
    isa = _target_of(ramp.func)
    ramp.func = isa.intrinsic("set1")
    ramp.args = [ramp.args[0]]
    return True


def _unsafe_hoist(func: ast.FunctionDef, rng: random.Random) -> bool:
    """Drop the select on one if-converted value (store the 'then' value always).

    Works on both blend shapes — ``select(else, then, mask)`` and the
    predicate-first ``psel(pred, then, else)`` — because both carry the
    'then' value second.
    """
    calls = _calls(func, _SELECT_NAMES | _PSEL_NAMES)
    if not calls:
        return False
    target = rng.choice(calls)
    isa = _target_of(target.func)
    then_value = target.args[1]
    target.func = isa.intrinsic("add")
    target.args = [then_value, _zero_call(isa)]
    return True


def _relax_comparison(func: ast.FunctionDef, rng: random.Random) -> bool:
    """Turn one strict ``>`` mask into ``>=`` (greater-or-equal).

    The difference only shows when the compared lanes tie, so random testing
    rarely notices — but translation validation does.  On a predicate-first
    target the mask is a predicate register, so the relaxed form is the
    predicate OR of the strict compare and an equality compare, each
    governed by the original predicate.
    """
    calls = _calls(func, _CMPGT_NAMES | _PCMPGT_NAMES)
    if not calls:
        return False
    target = rng.choice(calls)
    isa = _target_of(target.func)
    if target.func in _PCMPGT_NAMES:
        gov, left, right = target.args
        greater = ast.Call(func=isa.intrinsic("pcmpgt"),
                           args=[ast.clone_tree(gov), left, right])
        equal = ast.Call(func=isa.intrinsic("pcmpeq"),
                         args=[ast.clone_tree(gov), ast.clone_tree(left),
                               ast.clone_tree(right)])
        target.func = isa.intrinsic("por")
        target.args = [gov, greater, equal]
        return True
    left, right = target.args
    greater = ast.Call(func=isa.intrinsic("cmpgt"), args=[left, right])
    equal = ast.Call(func=isa.intrinsic("cmpeq"), args=[left, right])
    target.func = isa.intrinsic("or")
    target.args = [greater, equal]
    return True


def _drop_acc_init(func: ast.FunctionDef) -> bool:
    """Drop the ``setzero`` initializer of one vector declaration.

    The interpreter zero-fills uninitialized (non-scalable) vector locals,
    so the mutated candidate *behaves* identically — this fault is the
    static vetter's to catch (``use-before-init``), modeling the class of
    bugs that are invisible to any amount of execution.
    """
    for node in ast.walk(func):
        if (isinstance(node, ast.Decl) and isinstance(node.init, ast.Call)
                and node.init.func in _SETZERO_NAMES):
            node.init = None
            return True
    return False


def _ungoverned_store(func: ast.FunctionDef, rng: random.Random) -> bool:
    """Replace one predicated store's governor with an all-true predicate.

    Full-width iterations are unchanged; the final partial iteration of the
    whilelt loop stores every lane, running past the extent.
    """
    calls = [c for c in _calls(func, _PSTORE_NAMES) if c.args]
    if not calls:
        return False
    target = rng.choice(calls)
    isa = _target_of(target.func)
    target.args[0] = ast.Call(func=isa.intrinsic("ptrue"), args=[])
    return True


def _drop_epilogue(func: ast.FunctionDef) -> bool:
    """Remove the scalar epilogue loop (the last for loop of the region)."""
    loops = [node for node in ast.walk(func) if isinstance(node, ast.ForLoop)]
    if len(loops) < 2:
        return False
    epilogue = loops[-1]
    return ast.replace(func.body, epilogue, None)
