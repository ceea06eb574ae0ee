"""Pure-Python reference semantics for the bulk lane kernels.

:mod:`repro.intrinsics.lanemath` evaluates whole registers at once with
numpy; this module is its deliberately independent oracle: the same bulk
operations, spelled as straight-line per-lane Python over plain ints and
bools.  The property tests drive both implementations with randomized
inputs and require bit-identical results — so this module must NOT import
the numpy kernels (or :mod:`repro.lanetypes`), and it keeps its
own wraparound helpers parameterized by a raw ``bits`` count rather than
sharing the :class:`LaneType` descriptors.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Element width of the default (historical) lane type.
_LANE_BITS = 32

Lanes = tuple[int, ...]
Flags = tuple[bool, ...]


def _wrap(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: (~a) & b,
    "max": max,
    "min": min,
    "cmpgt": lambda a, b: -1 if a > b else 0,
    "cmpeq": lambda a, b: -1 if a == b else 0,
}

_UNARY = {
    "abs": abs,
}

BINARY_OPS = tuple(sorted(_BINARY))
UNARY_OPS = tuple(sorted(_UNARY))
SHIFT_OPS = ("sll", "sra", "srl")


def or_flags(*flag_sets: Sequence[bool]) -> Flags:
    """Lane-wise OR of poison-flag vectors."""
    return tuple(any(flags) for flags in zip(*flag_sets))


def binary_lanes(op: str, a: Sequence[int], b: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool],
                 bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    fn = _BINARY[op]
    lanes = tuple(_wrap(fn(x, y), bits) for x, y in zip(a, b))
    return lanes, or_flags(pa, pb)


def unary_lanes(op: str, a: Sequence[int], pa: Sequence[bool],
                bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    fn = _UNARY[op]
    return tuple(_wrap(fn(x), bits) for x in a), tuple(bool(p) for p in pa)


def shift_lanes(op: str, a: Sequence[int], count: int, pa: Sequence[bool],
                bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    count = int(count)
    poison = tuple(bool(p) for p in pa)
    if op == "srl":
        if count >= bits:
            return (0,) * len(a), poison
        return tuple(_wrap(_unsigned(v, bits) >> count, bits) for v in a), poison
    if op == "sll":
        if count >= bits:
            return (0,) * len(a), poison
        return tuple(_wrap(v << count, bits) for v in a), poison
    if op == "sra":
        count = min(count, bits - 1)
        return tuple(_wrap(v >> count, bits) for v in a), poison
    raise KeyError(op)


def select_lanes(a: Sequence[int], b: Sequence[int], mask: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool],
                 pm: Sequence[bool], bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    """Per-byte select: mask bytes with the sign bit set pick ``b``'s byte."""
    lanes = []
    poison = []
    for lane_a, lane_b, lane_m, fa, fb, fm in zip(a, b, mask, pa, pb, pm):
        ua = _unsigned(lane_a, bits)
        ub = _unsigned(lane_b, bits)
        um = _unsigned(lane_m, bits)
        out = 0
        selected_poison = fm
        for byte in range(bits // 8):
            shift = byte * 8
            if (um >> shift) & 0x80:
                out |= ((ub >> shift) & 0xFF) << shift
                selected_poison = selected_poison or fb
            else:
                out |= ((ua >> shift) & 0xFF) << shift
                selected_poison = selected_poison or fa
        lanes.append(_wrap(out, bits))
        poison.append(selected_poison)
    return tuple(lanes), tuple(poison)


# -- predicate kernels (lanes are booleans) ---------------------------------


def pred_not_lanes(gov: Sequence[bool], p: Sequence[bool],
                   pg: Sequence[bool], pp: Sequence[bool]) -> tuple[Flags, Flags]:
    lanes = tuple(g and not x for g, x in zip(gov, p))
    return lanes, or_flags(pg, pp)


def pred_logic_lanes(op: str, gov: Sequence[bool],
                     a: Sequence[bool], b: Sequence[bool],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool]) -> tuple[Flags, Flags]:
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
                   bits: int = _LANE_BITS) -> tuple[Flags, Flags]:
    if op == "cmpgt":
        lanes = tuple(g and x > y for g, x, y in zip(gov, a, b))
    elif op == "cmpeq":
        lanes = tuple(g and x == y for g, x, y in zip(gov, a, b))
    else:
        raise KeyError(op)
    poison = tuple(
        fg or (g and (fa or fb))
        for fg, g, fa, fb in zip(pg, gov, pa, pb)
    )
    return lanes, poison


def psel_lanes(pred: Sequence[bool], a: Sequence[int], b: Sequence[int],
               pg: Sequence[bool], pa: Sequence[bool],
               pb: Sequence[bool], bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    lanes = tuple(x if g else y for g, x, y in zip(pred, a, b))
    poison = tuple(
        fg or (fa if g else fb)
        for fg, g, fa, fb in zip(pg, pred, pa, pb)
    )
    return lanes, poison


def pred_merge_lanes(op: str, pred: Sequence[bool],
                     a: Sequence[int], b: Sequence[int],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool],
                     bits: int = _LANE_BITS) -> tuple[Lanes, Flags]:
    fn = _BINARY[op]
    lanes = tuple(
        _wrap(fn(x, y), bits) if g else x
        for g, x, y in zip(pred, a, b)
    )
    poison = tuple(
        fg or ((fa or fb) if g else fa)
        for fg, g, fa, fb in zip(pg, pred, pa, pb)
    )
    return lanes, poison
