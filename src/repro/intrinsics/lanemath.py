"""Shared lane arithmetic, scalar and bulk, parametric in the element type.

Every layer that models lane values — the intrinsic semantics, the concrete
interpreter, the memory model and the symbolic executor's constant folding —
agrees on one definition of two's-complement wraparound, owned by the
:class:`~repro.lanetypes.LaneType` descriptors and applied here
and nowhere else.

Beyond the scalar helpers, this module provides *bulk* kernels that evaluate
a whole register per call: lanes as numpy arrays of the dtype's width (whose
arithmetic wraps exactly like the scalar ``LaneType.wrap`` semantics),
poison and predicate lanes as boolean arrays.  The property tests compare
every kernel against :mod:`repro.intrinsics.purelanes`, a deliberately
independent pure-Python reference.

Shift counts at or beyond the lane width are *defined* here — ``srl``/``sll``
produce 0 and ``sra`` clamps to ``bits - 1``, matching the scalar oracle —
rather than delegated to numpy's per-platform over-shift behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from repro.intrinsics import purelanes
from repro.lanetypes import INT32, LaneType


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
# bulk kernels: one call per register instead of one call per lane
# ---------------------------------------------------------------------------

BINARY_OPS = purelanes.BINARY_OPS
UNARY_OPS = purelanes.UNARY_OPS
SHIFT_OPS = purelanes.SHIFT_OPS

#: LaneType name -> (signed dtype, unsigned dtype, signed -1, signed 0).
_NP_TYPES = {
    "int16": (_np.int16, _np.uint16, _np.int16(-1), _np.int16(0)),
    "int32": (_np.int32, _np.uint32, _np.int32(-1), _np.int32(0)),
    "int64": (_np.int64, _np.uint64, _np.int64(-1), _np.int64(0)),
}


def _binary_kernels(neg1, zero):
    return {
        "add": _np.add,
        "sub": _np.subtract,
        "mul": _np.multiply,
        "and": _np.bitwise_and,
        "or": _np.bitwise_or,
        "xor": _np.bitwise_xor,
        "andnot": lambda a, b: _np.bitwise_and(_np.invert(a), b),
        "max": _np.maximum,
        "min": _np.minimum,
        "cmpgt": lambda a, b: _np.where(a > b, neg1, zero),
        "cmpeq": lambda a, b: _np.where(a == b, neg1, zero),
    }


#: LaneType name -> op -> numpy kernel (comparisons bake in the dtype's
#: own -1/0 so the result array keeps the element width).
_BINARY_KERNELS = {
    name: _binary_kernels(neg1, zero)
    for name, (_, _, neg1, zero) in _NP_TYPES.items()
}

_UNARY_KERNELS = {
    "abs": _np.abs,
}


def _arr(lanes: Sequence[int], dtype: LaneType) -> "_np.ndarray":
    return _np.array(lanes, dtype=_NP_TYPES[dtype.name][0])


def _bools(flags: Sequence[bool]) -> "_np.ndarray":
    return _np.array(flags, dtype=_np.bool_)


def _lane_tuple(array: "_np.ndarray") -> tuple[int, ...]:
    return tuple(map(int, array))


def _flag_tuple(array: "_np.ndarray") -> tuple[bool, ...]:
    return tuple(map(bool, array))


def or_flags(*flag_sets: Sequence[bool]) -> tuple[bool, ...]:
    """Lane-wise OR of poison-flag vectors (with a no-poison fast path)."""
    if not any(map(any, flag_sets)):
        return (False,) * len(flag_sets[0])
    return purelanes.or_flags(*flag_sets)


def binary_lanes(op: str, a: Sequence[int], b: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool],
                 dtype: LaneType = INT32,
                 ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Lane-wise binary op with wraparound; poison ORs lane-wise."""
    kernel = _BINARY_KERNELS[dtype.name][op]
    lanes = _lane_tuple(kernel(_arr(a, dtype), _arr(b, dtype)))
    return lanes, or_flags(pa, pb)


def unary_lanes(op: str, a: Sequence[int], pa: Sequence[bool],
                dtype: LaneType = INT32,
                ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    return _lane_tuple(_UNARY_KERNELS[op](_arr(a, dtype))), tuple(pa)


def shift_lanes(op: str, a: Sequence[int], count: int, pa: Sequence[bool],
                dtype: LaneType = INT32,
                ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Whole-register shift by a scalar count (AVX-style immediate shifts).

    Over-shifts are defined, not platform-dependent: ``srl``/``sll`` with
    ``count >= dtype.bits`` produce 0 and ``sra`` clamps to ``bits - 1``,
    exactly like the scalar oracle.
    """
    count = int(count)
    poison = tuple(pa)
    signed, unsigned = _NP_TYPES[dtype.name][:2]
    if op == "srl":
        if count >= dtype.bits:
            return (0,) * len(a), poison
        shifted = (_arr(a, dtype).view(unsigned) >> unsigned(count)).view(signed)
    elif op == "sll":
        if count >= dtype.bits:
            return (0,) * len(a), poison
        shifted = (_arr(a, dtype).view(unsigned) << unsigned(count)).view(signed)
    elif op == "sra":
        shifted = _arr(a, dtype) >> signed(min(count, dtype.bits - 1))
    else:
        raise KeyError(op)
    return _lane_tuple(shifted), poison


def select_lanes(a: Sequence[int], b: Sequence[int], mask: Sequence[int],
                 pa: Sequence[bool], pb: Sequence[bool], pm: Sequence[bool],
                 dtype: LaneType = INT32,
                 ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Per-byte select: mask bytes with the sign bit set pick ``b``'s byte.

    Byte index ``k`` of each operand lane corresponds across ``a``/``b``/
    ``mask``, so the uint8 reinterpretation is endianness-agnostic.
    """
    signed = _NP_TYPES[dtype.name][0]
    bytes_a = _arr(a, dtype).view(_np.uint8)
    bytes_b = _arr(b, dtype).view(_np.uint8)
    picks_b = (_arr(mask, dtype).view(_np.uint8) & 0x80).astype(_np.bool_)
    lanes = _lane_tuple(_np.where(picks_b, bytes_b, bytes_a).view(signed))
    if not (any(pa) or any(pb) or any(pm)):
        return lanes, (False,) * len(lanes)
    per_lane = picks_b.reshape(len(lanes), dtype.bytes)
    uses_b = per_lane.any(axis=1)
    uses_a = (~per_lane).any(axis=1)
    poison = _flag_tuple(
        _bools(pm)
        | (_bools(pa) & uses_a)
        | (_bools(pb) & uses_b)
    )
    return lanes, poison


# -- bulk predicate kernels (lanes are booleans) ----------------------------


def pred_not_lanes(gov: Sequence[bool], p: Sequence[bool],
                   pg: Sequence[bool], pp: Sequence[bool],
                   ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Zeroing predicate NOT: active where ``gov`` is active and ``p`` isn't."""
    lanes = _flag_tuple(_bools(gov) & ~_bools(p))
    return lanes, or_flags(pg, pp)


def pred_logic_lanes(op: str, gov: Sequence[bool],
                     a: Sequence[bool], b: Sequence[bool],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool],
                     ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Zeroing predicate AND/OR, governed by ``gov``."""
    xa, xb = _bools(a), _bools(b)
    combined = (xa & xb) if op == "and" else (xa | xb)
    if op not in ("and", "or"):
        raise KeyError(op)
    return _flag_tuple(_bools(gov) & combined), or_flags(pg, pa, pb)


def pred_cmp_lanes(op: str, gov: Sequence[bool],
                   a: Sequence[int], b: Sequence[int],
                   pg: Sequence[bool], pa: Sequence[bool],
                   pb: Sequence[bool],
                   dtype: LaneType = INT32,
                   ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Predicate-producing comparison; inactive lanes come back false."""
    xa, xb = _arr(a, dtype), _arr(b, dtype)
    if op == "cmpgt":
        compared = xa > xb
    elif op == "cmpeq":
        compared = xa == xb
    else:
        raise KeyError(op)
    active = _bools(gov)
    lanes = _flag_tuple(active & compared)
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    # A predicate bit computed from poison data is itself unreliable — but
    # only where the governing predicate actually looked.
    poison = _flag_tuple(_bools(pg) | (active & (_bools(pa) | _bools(pb))))
    return lanes, poison


def psel_lanes(pred: Sequence[bool], a: Sequence[int], b: Sequence[int],
               pg: Sequence[bool], pa: Sequence[bool], pb: Sequence[bool],
               dtype: LaneType = INT32,
               ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Predicate-selected blend: active lanes from ``a``, inactive from ``b``."""
    active = _bools(pred)
    lanes = _lane_tuple(_np.where(active, _arr(a, dtype), _arr(b, dtype)))
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    poison = _flag_tuple(_bools(pg) | _np.where(active, _bools(pa), _bools(pb)))
    return lanes, poison


def pred_merge_lanes(op: str, pred: Sequence[bool],
                     a: Sequence[int], b: Sequence[int],
                     pg: Sequence[bool], pa: Sequence[bool],
                     pb: Sequence[bool],
                     dtype: LaneType = INT32,
                     ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Merging predicated arithmetic: inactive lanes keep the first operand."""
    active = _bools(pred)
    xa = _arr(a, dtype)
    computed = _BINARY_KERNELS[dtype.name][op](xa, _arr(b, dtype))
    lanes = _lane_tuple(_np.where(active, computed, xa))
    if not (any(pg) or any(pa) or any(pb)):
        return lanes, (False,) * len(lanes)
    fa, fb = _bools(pa), _bools(pb)
    poison = _flag_tuple(_bools(pg) | _np.where(active, fa | fb, fa))
    return lanes, poison
