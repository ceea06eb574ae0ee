"""The one concrete lane evaluator, parametric in the element type.

Every layer that computes concrete lane values — the intrinsic semantics,
the interpreter and the memory model — evaluates lane ops here, one whole
register per call, over plain ``int`` lanes and ``bool`` poison/predicate
flags.  Two's-complement wraparound is owned by the
:class:`~repro.lanetypes.LaneType` descriptors (:meth:`LaneType.wrap`) and
applied here and nowhere else; the op -> lane-function table lives here
only, so the registry and the vector values name ops without defining them.

The verifier does not call these kernels: :mod:`repro.alive.symexec` builds
its own bitvector terms, and the tests check this evaluator (and the
interpreter around it) against those terms on every op, element type and
register width.

An immediate shift reads the low byte of its count (:func:`shift_count`), and
counts at or beyond the lane width are *defined*: ``srl``/``sll`` produce 0
and ``sra`` clamps to ``bits - 1``.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

from repro.lanetypes import INT32, LaneType

Lanes = tuple[int, ...]
Flags = tuple[bool, ...]


def lane_active(mask_value: int, dtype: LaneType = INT32) -> bool:
    """Whether a data-vector mask lane enables its operation.

    One definition of "active" shared by the AVX-style masked memory ops and
    the select byte blends: the lane's sign bit is set (TSVC vectorizations
    only ever build full-lane 0 / -1 masks).
    """
    return dtype.wrap(mask_value) < 0


def whilelt_lanes(base: int, bound: int, width: int) -> tuple[bool, ...]:
    """The SVE ``whilelt`` predicate pattern: lane ``k`` active iff
    ``base + k < bound``.

    Shared by the concrete interpreter and the symbolic executor so the two
    execution substrates can never disagree about which tail lanes a
    predicated loop's final iteration retires.
    """
    return tuple(base + lane < bound for lane in range(width))


# ---------------------------------------------------------------------------
# the op -> lane-function table (results are wrapped by the kernels)
# ---------------------------------------------------------------------------

_BINARY: dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "andnot": lambda a, b: ~a & b,
    "max": max,
    "min": min,
    "cmpgt": lambda a, b: -1 if a > b else 0,
    "cmpeq": lambda a, b: -1 if a == b else 0,
}

_UNARY: dict[str, Callable[[int], int]] = {
    "abs": abs,
}

BINARY_OPS = tuple(sorted(_BINARY))
UNARY_OPS = tuple(sorted(_UNARY))
SHIFT_OPS = ("sll", "sra", "srl")


def or_flags(*flag_sets: Sequence[bool]) -> Flags:
    """Lane-wise OR of poison-flag vectors (with a no-poison fast path)."""
    if not any(map(any, flag_sets)):
        return (False,) * len(flag_sets[0])
    return tuple(map(any, zip(*flag_sets)))


def binary_lanes(op: str, a: Sequence[int], b: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool],
                 dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    """Lane-wise binary op with wraparound; poison ORs lane-wise."""
    lanes = tuple(map(dtype.wrap, map(_BINARY[op], a, b)))
    return lanes, or_flags(pa, pb)


def unary_lanes(op: str, a: Sequence[int], pa: Sequence[bool],
                dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    return tuple(map(dtype.wrap, map(_UNARY[op], a))), tuple(pa)


def shift_count(count: int) -> int:
    """The count an immediate shift reads: the low byte of ``count``.

    x86 reads the imm8 operand of ``slli``/``srli``/``srai`` as an unsigned
    byte, so ``-1`` shifts by 255 (an over-shift) and ``257`` by 1.  NEON's
    ``vshlq_n``/``vshrq_n`` reject an immediate outside the lane width at
    compile time; the model reads those the x86 way too, as it reads
    ``bits + 8`` as an over-shift.  Both evaluators call this, so the
    interpreter and the verifier shift by the same count.
    """
    return int(count) & 0xFF


def shift_lanes(op: str, a: Sequence[int], count: int, pa: Sequence[bool],
                dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    """Whole-register shift by an immediate count (see :func:`shift_count`).

    Over-shifts are defined: ``srl``/``sll`` with a count of at least
    ``dtype.bits`` produce 0 and ``sra`` clamps to ``bits - 1``.
    """
    count = shift_count(count)
    poison = tuple(pa)
    wrap = dtype.wrap
    if op == "sra":
        count = min(count, dtype.bits - 1)
        return tuple(wrap(v >> count) for v in a), poison
    if op not in ("srl", "sll"):
        raise KeyError(op)
    if count >= dtype.bits:
        return (0,) * len(a), poison
    if op == "srl":
        mask = dtype.mask
        return tuple(wrap((v & mask) >> count) for v in a), poison
    return tuple(wrap(v << count) for v in a), poison


def select_lanes(a: Sequence[int], b: Sequence[int], mask: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool], pm: Sequence[bool],
                 dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    """Per-byte select: mask bytes with the sign bit set pick ``b``'s byte.

    Each mask lane becomes a byte-select bitmask: the sign bit of every byte
    (``0x80`` repeated) shifted down to the byte's low bit, times ``0xFF``,
    fills exactly the bytes taken from ``b``.
    """
    wrap = dtype.wrap
    full = dtype.mask
    byte_signs = 0x80 * (full // 0xFF)
    picks = [((m & byte_signs) >> 7) * 0xFF for m in mask]
    lanes = tuple(wrap(x ^ ((x ^ y) & s)) for x, y, s in zip(a, b, picks))
    if not (any(pa) or any(pb) or any(pm)):
        return lanes, (False,) * len(lanes)
    # A lane is poison if its mask is, or if it takes any byte from a
    # poison operand.
    poison = tuple(
        fm or (fa and s != full) or (fb and s != 0)
        for s, fa, fb, fm in zip(picks, pa, pb, pm)
    )
    return lanes, poison


# -- predicate kernels (lanes are booleans) ---------------------------------


def pred_not_lanes(gov: Sequence[bool], p: Sequence[bool],
                   pg: Sequence[bool], pp: Sequence[bool],
                   ) -> tuple[Flags, Flags]:
    """Zeroing predicate NOT: active where ``gov`` is active and ``p`` isn't."""
    lanes = tuple(g and not x for g, x in zip(gov, p))
    return lanes, or_flags(pg, pp)


def pred_logic_lanes(op: str, gov: Sequence[bool],
                     a: Sequence[bool], b: Sequence[bool],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool]) -> tuple[Flags, Flags]:
    """Zeroing predicate AND/OR, governed by ``gov``."""
    if op == "and":
        lanes = tuple(g and x and y for g, x, y in zip(gov, a, b))
    elif op == "or":
        lanes = tuple(g and (x or y) for g, x, y in zip(gov, a, b))
    else:
        raise KeyError(op)
    return lanes, or_flags(pg, pa, pb)


def pred_cmp_lanes(op: str, gov: Sequence[bool],
                   a: Sequence[int], b: Sequence[int],
                   pg: Sequence[bool], pa: Sequence[bool],
                   pb: Sequence[bool],
                   dtype: LaneType = INT32) -> tuple[Flags, Flags]:
    """Predicate-producing comparison; inactive lanes come back false."""
    if op == "cmpgt":
        lanes = tuple(g and x > y for g, x, y in zip(gov, a, b))
    elif op == "cmpeq":
        lanes = tuple(g and x == y for g, x, y in zip(gov, a, b))
    else:
        raise KeyError(op)
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    # A predicate bit computed from poison data is itself unreliable — but
    # only where the governing predicate actually looked.
    poison = tuple(
        fg or (g and (fa or fb))
        for fg, g, fa, fb in zip(pg, gov, pa, pb)
    )
    return lanes, poison


def psel_lanes(pred: Sequence[bool], a: Sequence[int], b: Sequence[int],
               pg: Sequence[bool], pa: Sequence[bool], pb: Sequence[bool],
               dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    """Predicate-selected blend: active lanes from ``a``, inactive from ``b``."""
    lanes = tuple(x if g else y for g, x, y in zip(pred, a, b))
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    poison = tuple(
        fg or (fa if g else fb)
        for fg, g, fa, fb in zip(pg, pred, pa, pb)
    )
    return lanes, poison


def pred_merge_lanes(op: str, pred: Sequence[bool],
                     a: Sequence[int], b: Sequence[int],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool],
                     dtype: LaneType = INT32) -> tuple[Lanes, Flags]:
    """Merging predicated arithmetic: inactive lanes keep the first operand."""
    fn = _BINARY[op]
    wrap = dtype.wrap
    lanes = tuple(wrap(fn(x, y)) if g else x for g, x, y in zip(pred, a, b))
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    poison = tuple(
        fg or ((fa or fb) if g else fa)
        for fg, g, fa, fb in zip(pg, pred, pa, pb)
    )
    return lanes, poison
