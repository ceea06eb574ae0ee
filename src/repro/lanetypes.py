"""Lane element types: the dtype axis of the pipeline.

A :class:`LaneType` describes one integer element type a vector register can
be carved into — its bit width and its C spelling.  Everything that used to
be hardwired to 32 bits (lane wraparound, the lane width, the lane kernels of
:mod:`repro.intrinsics.lanemath`, ``_epi32``/``_s32`` spellings, 32-bit
symexec terms) is parameterized by these descriptors instead, the same way
:class:`repro.targets.TargetISA` made vector *width* a data axis.

Three types ship: :data:`INT16`, :data:`INT32` (the default — the paper's
universe) and :data:`INT64`.  Lane counts are never stored here: a target's
lane count for a dtype is ``register_bits // dtype.bits``, owned by
:meth:`repro.targets.TargetISA.lanes_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LaneType:
    """One integer element type, described entirely as data.

    Equality, hashing and ``repr`` use the three declared fields only.
    """

    #: Canonical identifier used in configs, caches, suffixes and reports.
    name: str
    #: Element width in bits; every wraparound reduces modulo ``2**bits``.
    bits: int
    #: The C scalar spelling kernels declare (``int`` for the default type,
    #: the ``<stdint.h>`` fixed-width names otherwise).
    c_name: str
    #: ``2**bits - 1`` and ``2**(bits - 1)``, derived from ``bits`` once:
    #: :meth:`wrap` runs on every scalar the interpreter computes.
    mask: int = field(init=False, repr=False, compare=False)
    sign_bit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", (1 << self.bits) - 1)
        object.__setattr__(self, "sign_bit", 1 << (self.bits - 1))

    def wrap(self, value: int) -> int:
        """Reduce ``value`` to this type's signed two's-complement range."""
        value &= self.mask
        if value & self.sign_bit:
            value -= self.mask + 1
        return value

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


def trunc_div(dividend: int, divisor: int) -> int:
    """C's integer quotient: exact, truncated toward zero (``divisor != 0``).

    Integer arithmetic, not ``int(a / b)``: a float quotient loses bits
    beyond 2**53, which 64-bit lanes reach.
    """
    quotient = abs(dividend) // abs(divisor)
    return quotient if (dividend < 0) == (divisor < 0) else -quotient


INT16 = LaneType(name="int16", bits=16, c_name="int16_t")
INT32 = LaneType(name="int32", bits=32, c_name="int")
INT64 = LaneType(name="int64", bits=64, c_name="int64_t")

#: Every supported element type, narrow to wide.
ALL_LANE_TYPES: tuple[LaneType, ...] = (INT16, INT32, INT64)

DEFAULT_LANE_TYPE = INT32

_BY_NAME = {t.name: t for t in ALL_LANE_TYPES}

_ALIASES = {
    **{t.name: t.name for t in ALL_LANE_TYPES},
    **{t.c_name: t.name for t in ALL_LANE_TYPES},
    "int32_t": "int32",
    "i16": "int16", "i32": "int32", "i64": "int64",
}


def get_lane_type(dtype: "LaneType | str | None") -> LaneType:
    """Resolve a dtype spec (instance, name/alias, or None -> default)."""
    if dtype is None:
        return DEFAULT_LANE_TYPE
    if isinstance(dtype, LaneType):
        return dtype
    canonical = _ALIASES.get(str(dtype).strip().lower())
    if canonical is None:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown lane element type {dtype!r} (known: {known})")
    return _BY_NAME[canonical]
