"""Bitvector term language.

Terms are immutable, hash-consed DAG nodes over one modeled word width (32
bits by default; the :func:`modeled_bits` context switches the active width
to the kernel's lane element width, and the bit-blaster may re-interpret
terms at a further reduced width).  The operation set covers exactly what
the symbolic executor needs for TSVC kernels and their SIMD vectorizations:
wraparound arithmetic, bitwise logic, comparisons (yielding 0/1),
if-then-else selection, min/max and absolute value.
"""

from __future__ import annotations

import enum
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from repro.lanetypes import trunc_div
from repro.memo import Memo

WORD_BITS = 32
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)

#: The active modeled width.  Width-sensitive construction steps (constant
#: masking, constant folding, the full-lane mask algebra) read it, so terms
#: built inside ``modeled_bits(16)`` wrap like int16 lanes.  The default is
#: the historical 32-bit word.
_ACTIVE_BITS = WORD_BITS


def active_bits() -> int:
    """The modeled word width terms are currently being built at."""
    return _ACTIVE_BITS


@contextmanager
def modeled_bits(bits: int) -> Iterator[None]:
    """Build terms at ``bits``-wide word semantics for the ``with`` body.

    The symbolic executor wraps each kernel encoding in this context so the
    term layer's constant folding, constant masking and mask-algebra
    rewrites all happen at the kernel's lane element width.  Nesting is
    fine; the previous width is restored on exit.
    """
    global _ACTIVE_BITS
    if bits <= 0:
        raise ValueError(f"modeled width must be positive, got {bits}")
    previous = _ACTIVE_BITS
    _ACTIVE_BITS = bits
    try:
        yield
    finally:
        _ACTIVE_BITS = previous


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    return value & ((1 << bits) - 1)


class TermKind(enum.Enum):
    CONST = "const"
    VAR = "var"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    DIV = "div"      # C-style truncating signed division
    REM = "rem"      # C-style signed remainder
    ITE = "ite"      # ite(cond, a, b) where cond is 0/1
    LT = "lt"        # signed less-than, yields 0/1
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    POISON = "poison"  # a poison marker value (UB tracking)


_COMMUTATIVE = {TermKind.ADD, TermKind.MUL, TermKind.AND, TermKind.OR, TermKind.XOR,
                TermKind.EQ, TermKind.NE, TermKind.MIN, TermKind.MAX}


@dataclass(frozen=True, eq=False)
class Term:
    """One node of the term DAG.

    Equality is structural, but every node caches its structural hash at
    construction time, so hashing is O(1) and equality checks short-circuit
    on hash inequality before falling back to a structural walk.  It also
    records at construction whether a ``POISON`` node is reachable from
    it, so :func:`contains_poison` is O(1) too.  Nodes
    built through :func:`mk` are additionally hash-consed (interned):
    structurally equal terms constructed through it are pointer-equal, so
    the identity fast path below decides most comparisons.  Direct
    ``Term(...)`` construction (the normalizer builds raw nodes) stays
    valid — such nodes simply aren't interned.
    """

    kind: TermKind
    args: tuple["Term", ...] = ()
    value: int | None = None       # for CONST
    name: str | None = None        # for VAR / POISON provenance

    def __post_init__(self) -> None:
        if self.kind is TermKind.CONST and self.value is None:
            raise ValueError("constant terms need a value")
        if self.kind is TermKind.VAR and not self.name:
            raise ValueError("variable terms need a name")
        object.__setattr__(
            self, "_hash", hash((self.kind, self.args, self.value, self.name))
        )
        # Each argument already carries its own bit, so this looks one level
        # down and never walks the DAG.
        object.__setattr__(
            self, "_poison",
            self.kind is TermKind.POISON or any(arg._poison for arg in self.args)
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        # The structural walk is iterative, so equal terms of any depth
        # compare without growing the Python stack.
        pending = [(self, other)]
        while pending:
            left, right = pending.pop()
            if (left.kind is not right.kind or left.value != right.value
                    or left.name != right.name or len(left.args) != len(right.args)):
                return False
            for a, b in zip(left.args, right.args):
                if a is not b:
                    if a._hash != b._hash:
                        return False
                    pending.append((a, b))
        return True

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is TermKind.CONST:
            return str(to_signed(self.value))
        if self.kind is TermKind.VAR:
            return self.name
        return f"{self.kind.value}({', '.join(str(a) for a in self.args)})"


_CONST_CACHE: dict[int, Term] = {}
_VAR_CACHE: dict[str, Term] = {}

#: Interning table for compound nodes built by :func:`mk`, keyed by the
#: (kind, args) pair itself: the key tuple holds strong references, so ids
#: stay valid, and lookups are cheap thanks to the cached per-node hashes.
_NODE_CACHE = Memo(200_000)

#: Memo over the whole :func:`mk` simplification pipeline.  The symbolic
#: executor rebuilds structurally identical subtrees once per bounded-unroll
#: copy; this returns the previously simplified (and interned) result
#: without re-running folding, identity and mask-algebra rewrites.
_MK_CACHE = Memo(200_000)


def _intern(kind: TermKind, args: tuple[Term, ...]) -> Term:
    key = (kind, args)
    node = _NODE_CACHE.get(key)
    if node is None:
        node = _NODE_CACHE.put(key, Term(kind, args))
    return node


def bv_const(value: int) -> Term:
    value = to_unsigned(int(value), _ACTIVE_BITS)
    if value not in _CONST_CACHE:
        _CONST_CACHE[value] = Term(TermKind.CONST, value=value)
    return _CONST_CACHE[value]


def bv_var(name: str) -> Term:
    if name not in _VAR_CACHE:
        _VAR_CACHE[name] = Term(TermKind.VAR, name=name)
    return _VAR_CACHE[name]


def poison(reason: str = "poison") -> Term:
    return Term(TermKind.POISON, name=reason)


ZERO = bv_const(0)
ONE = bv_const(1)


def _all_const(args: Iterable[Term]) -> bool:
    return all(a.kind is TermKind.CONST for a in args)


def mk(kind: TermKind, *args: Term) -> Term:
    """Build a term with light local simplification (constant folding, identities).

    Results are memoized and interned: calling ``mk`` twice with equal
    arguments returns the same object, and the simplification rules run
    only on the first call.
    """
    # Simplification is width-sensitive (folding, mask algebra), so the memo
    # is keyed by the active modeled width as well as the node itself.
    memo_key = (_ACTIVE_BITS, kind, args)
    cached = _MK_CACHE.get(memo_key)
    if cached is not None:
        return cached
    return _MK_CACHE.put(memo_key, _mk_uncached(kind, *args))


def _mk_uncached(kind: TermKind, *args: Term) -> Term:
    if any(a.kind is TermKind.POISON for a in args):
        # Poison propagates through every operation, ITE included: an ITE
        # with a poison operand is poison whichever branch it selects.
        for a in args:
            if a.kind is TermKind.POISON:
                return a
    if _all_const(args):
        return bv_const(evaluate(Term(kind, tuple(args)), {}, bits=_ACTIVE_BITS))
    if kind is TermKind.ADD:
        left, right = args
        if left is ZERO:
            return right
        if right is ZERO:
            return left
    if kind is TermKind.SUB:
        left, right = args
        if right is ZERO:
            return left
        if left == right:
            return ZERO
    if kind is TermKind.MUL:
        left, right = args
        if left is ZERO or right is ZERO:
            return ZERO
        if left is ONE:
            return right
        if right is ONE:
            return left
    if kind in (TermKind.GT, TermKind.GE):
        # Canonical comparison direction: only LT / LE survive construction.
        flipped = TermKind.LT if kind is TermKind.GT else TermKind.LE
        return mk(flipped, args[1], args[0])
    if kind is TermKind.ITE:
        cond, then, otherwise = args
        if cond.kind is TermKind.CONST:
            return then if cond.value != 0 else otherwise
        if then == otherwise:
            return then
        minmax = _minmax_pattern(cond, then, otherwise)
        if minmax is not None:
            return minmax
    rewritten = _comparison_negation(kind, args)
    if rewritten is not None:
        return rewritten
    rewritten = _mask_algebra(kind, args)
    if rewritten is not None:
        return rewritten
    if kind in _COMMUTATIVE and len(args) == 2:
        left, right = args
        # Canonical argument order gives structural equality a better chance.
        if _term_key(right) < _term_key(left):
            args = (right, left)
    return _intern(kind, tuple(args))


def _minmax_pattern(cond: Term, then: Term, otherwise: Term) -> Term | None:
    """Recognize ``ite(a < b ? ...)`` selections that are really min/max."""
    if cond.kind not in (TermKind.LT, TermKind.LE):
        return None
    low, high = cond.args
    if low == otherwise and high == then:
        # ite(e < t, t, e): picks the larger operand.
        return _intern(TermKind.MAX, tuple(sorted((then, otherwise), key=_term_key)))
    if low == then and high == otherwise:
        # ite(t < e, t, e): picks the smaller operand.
        return _intern(TermKind.MIN, tuple(sorted((then, otherwise), key=_term_key)))
    return None


_COMPARISON_NEGATIONS = {
    TermKind.LT: TermKind.GE,
    TermKind.LE: TermKind.GT,
    TermKind.EQ: TermKind.NE,
    TermKind.NE: TermKind.EQ,
}


def _comparison_negation(kind: TermKind, args: tuple[Term, ...]) -> Term | None:
    """Fold ``(a CMP b) == 0`` into the negated comparison."""
    if kind is not TermKind.EQ or len(args) != 2:
        return None
    left, right = args
    for cmp_term, zero in ((left, right), (right, left)):
        if zero.kind is TermKind.CONST and zero.value == 0 and cmp_term.kind in _COMPARISON_NEGATIONS:
            negated = _COMPARISON_NEGATIONS[cmp_term.kind]
            return mk(negated, cmp_term.args[0], cmp_term.args[1])
    return None


def _all_ones_value() -> int:
    """The all-ones constant (-1) at the active modeled width."""
    return (1 << _ACTIVE_BITS) - 1


def _as_lane_mask(term: Term) -> Term | None:
    """If ``term`` is a full-lane mask (``ite(cond, -1, 0)``), return ``cond``."""
    if (
        term.kind is TermKind.ITE
        and term.args[1].kind is TermKind.CONST
        and term.args[2].kind is TermKind.CONST
        and term.args[1].value == _all_ones_value()
        and term.args[2].value == 0
    ):
        return term.args[0]
    return None


def _bool_not(cond: Term) -> Term:
    """Negation of a 0/1-valued condition term."""
    return mk(TermKind.EQ, cond, bv_const(0))


def _mask_algebra(kind: TermKind, args: tuple[Term, ...]) -> Term | None:
    """Rewrite the AVX2 mask idioms back into plain conditions.

    Comparison intrinsics produce per-lane masks ``ite(cond, -1, 0)``; blends
    test them with ``!= 0`` and combine them with bitwise and/or/xor.  These
    rules fold that algebra away so that the vectorized program's final terms
    normalize to the same ``ite(cond, ...)`` shape as the scalar program's —
    letting the normalization stage prove equivalence without bit-blasting.
    """
    if kind in (TermKind.NE, TermKind.EQ) and len(args) == 2:
        left, right = args
        if right.kind is TermKind.CONST and right.value == 0:
            cond = _as_lane_mask(left)
            if cond is not None:
                return cond if kind is TermKind.NE else _bool_not(cond)
        if left.kind is TermKind.CONST and left.value == 0:
            cond = _as_lane_mask(right)
            if cond is not None:
                return cond if kind is TermKind.NE else _bool_not(cond)
    if kind in (TermKind.AND, TermKind.OR) and len(args) == 2:
        cond_a = _as_lane_mask(args[0])
        cond_b = _as_lane_mask(args[1])
        if cond_a is not None and cond_b is not None:
            combined = mk(kind, cond_a, cond_b)
            return mk(TermKind.ITE, combined, bv_const(-1), bv_const(0))
        # andnot(mask, x) shows up as and(not(mask), x).
    if kind is TermKind.NOT and len(args) == 1:
        cond = _as_lane_mask(args[0])
        if cond is not None:
            return mk(TermKind.ITE, _bool_not(cond), bv_const(-1), bv_const(0))
    if kind is TermKind.XOR and len(args) == 2:
        left, right = args
        for mask_arg, other in ((left, right), (right, left)):
            cond = _as_lane_mask(mask_arg)
            if cond is not None and other.kind is TermKind.CONST and other.value == _all_ones_value():
                return mk(TermKind.ITE, _bool_not(cond), bv_const(-1), bv_const(0))
    return None


def _term_key(term: Term) -> tuple:
    return (term.kind.value, term.value if term.value is not None else -1, term.name or "", len(term.args))


def _div(v: Sequence[int], mask: int, bits: int) -> int:
    divisor = to_signed(v[1], bits)
    if divisor == 0:
        return 0
    return trunc_div(to_signed(v[0], bits), divisor) & mask


def _rem(v: Sequence[int], mask: int, bits: int) -> int:
    dividend, divisor = to_signed(v[0], bits), to_signed(v[1], bits)
    if divisor == 0:
        return 0
    return (dividend - trunc_div(dividend, divisor) * divisor) & mask


#: kind -> f(operand values, mask, bits), for every kind with operands.
_OPERATIONS: dict[TermKind, Callable[[Sequence[int], int, int], int]] = {
    TermKind.ADD: lambda v, mask, bits: (v[0] + v[1]) & mask,
    TermKind.SUB: lambda v, mask, bits: (v[0] - v[1]) & mask,
    TermKind.MUL: lambda v, mask, bits: (v[0] * v[1]) & mask,
    TermKind.NEG: lambda v, mask, bits: -v[0] & mask,
    TermKind.AND: lambda v, mask, bits: v[0] & v[1],
    TermKind.OR: lambda v, mask, bits: v[0] | v[1],
    TermKind.XOR: lambda v, mask, bits: v[0] ^ v[1],
    TermKind.NOT: lambda v, mask, bits: ~v[0] & mask,
    TermKind.SHL: lambda v, mask, bits: (v[0] << (v[1] % bits)) & mask,
    TermKind.LSHR: lambda v, mask, bits: (v[0] >> (v[1] % bits)) & mask,
    TermKind.ASHR: lambda v, mask, bits: (to_signed(v[0], bits) >> (v[1] % bits)) & mask,
    TermKind.DIV: _div,
    TermKind.REM: _rem,
    TermKind.ITE: lambda v, mask, bits: v[1] if v[0] != 0 else v[2],
    TermKind.LT: lambda v, mask, bits: int(to_signed(v[0], bits) < to_signed(v[1], bits)),
    TermKind.LE: lambda v, mask, bits: int(to_signed(v[0], bits) <= to_signed(v[1], bits)),
    TermKind.GT: lambda v, mask, bits: int(to_signed(v[0], bits) > to_signed(v[1], bits)),
    TermKind.GE: lambda v, mask, bits: int(to_signed(v[0], bits) >= to_signed(v[1], bits)),
    TermKind.EQ: lambda v, mask, bits: int(v[0] == v[1]),
    TermKind.NE: lambda v, mask, bits: int(v[0] != v[1]),
    TermKind.MIN: lambda v, mask, bits:
        v[0] if to_signed(v[0], bits) <= to_signed(v[1], bits) else v[1],
    TermKind.MAX: lambda v, mask, bits:
        v[0] if to_signed(v[0], bits) >= to_signed(v[1], bits) else v[1],
    TermKind.ABS: lambda v, mask, bits: abs(to_signed(v[0], bits)) & mask,
}


def evaluate(term: Term, assignment: Mapping[str, int], bits: int = WORD_BITS) -> int:
    """Evaluate ``term`` under ``assignment`` (values are unsigned ``bits``-wide).

    This is :func:`evaluate_many` at one term and one assignment, so it
    walks iteratively, evaluates operands left to right (both branches of
    an ``ite`` included), raises ``KeyError`` for the first unassigned
    variable met and ``ValueError`` for an unknown kind.
    """
    return evaluate_many([term], [assignment], bits)[0][0]


def evaluate_many(terms: Sequence[Term], assignments: Sequence[Mapping[str, int]],
                  bits: int = WORD_BITS) -> list[list[int]]:
    """Evaluate every term under every assignment in one walk.

    Returns one list per term, holding its value under each assignment in
    order.  Each distinct node is visited once for all the assignments: its
    value is the list of its values, one :data:`_OPERATIONS` call per
    assignment, and it is memoized by node identity across all the terms,
    so subterms shared within a term or between terms are evaluated once.
    The walk is iterative, so a term of any depth evaluates without growing
    the Python stack.  The terms are walked in order, and operands left to
    right before their node (both branches of an ``ite`` included), so the
    first unassigned variable met raises ``KeyError`` and an unknown kind
    raises ``ValueError``, as a recursive walk would.  Poison evaluates as
    ``0xDEAD`` (an arbitrary but fixed value).
    """
    mask = (1 << bits) - 1
    count = len(assignments)
    values: dict[int, list[int]] = {}
    stack = list(reversed(terms))
    while stack:
        node = stack[-1]
        key = id(node)
        if key in values:
            stack.pop()
            continue
        args = node.args
        if args:
            pending = [arg for arg in args if id(arg) not in values]
            if pending:
                pending.reverse()
                stack += pending
                continue
            operation = _OPERATIONS.get(node.kind)
            if operation is None:
                raise ValueError(f"cannot evaluate term kind {node.kind}")
            columns = zip(*[values[id(arg)] for arg in args])
            values[key] = list(map(operation, columns, repeat(mask), repeat(bits)))
        elif node.kind is TermKind.CONST:
            values[key] = [node.value & mask] * count
        elif node.kind is TermKind.VAR:
            name = node.name
            if any(name not in assignment for assignment in assignments):
                raise KeyError(f"unassigned variable {name!r}")
            values[key] = [assignment[name] & mask for assignment in assignments]
        elif node.kind is TermKind.POISON:
            values[key] = [0xDEAD & mask] * count
        else:
            raise ValueError(f"cannot evaluate term kind {node.kind}")
        stack.pop()
    return [values[id(term)] for term in terms]


def collect_variables(term: Term) -> set[str]:
    """All variable names appearing in ``term``."""
    names: set[str] = set()
    stack = [term]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind is TermKind.VAR:
            names.add(node.name)
        stack.extend(node.args)
    return names


def contains_poison(term: Term) -> bool:
    """Whether a ``POISON`` node is reachable from ``term``.

    The answer was recorded when ``term`` was built, so this reads it.
    """
    return term._poison


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes in ``term`` (used for budget decisions)."""
    count = 0
    stack = [term]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        stack.extend(node.args)
    return count


_DIGEST_CACHE = Memo(200_000)


def term_digest(term: Term) -> str:
    """A content-stable digest of ``term``'s structure.

    Unlike ``hash(term)`` (salted per process for strings), the digest
    depends only on structural content — kind, value, name and (recursively)
    the argument digests — so structurally-equal terms share a digest across
    processes and runs regardless of how their DAGs happen to be shared.
    That makes it fit to key caches that are persisted to disk or shipped
    between campaign workers (:mod:`repro.smt.solvecache`).
    """
    cache = _DIGEST_CACHE
    cached = cache.get(term)
    if cached is not None:
        return cached
    # Evict before the walk, never during it: the walk reads back the
    # digests it stored for each node's arguments.
    cache.make_room()
    stack = [term]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        missing = [arg for arg in node.args if arg not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        payload = ":".join((
            node.kind.value,
            "" if node.value is None else str(node.value),
            node.name or "",
            ",".join(cache[arg] for arg in node.args),
        ))
        cache[node] = hashlib.sha256(payload.encode()).hexdigest()[:32]
    return cache[term]
