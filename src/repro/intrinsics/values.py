"""Width- and dtype-parametric vector and predicate values.

:class:`VecValue` models one SIMD register of any supported width and lane
element type: ``n`` lanes of ``dtype.bits``-bit signed integers stored as
Python ints in two's-complement signed form, plus a per-lane poison flag
used for undefined-behaviour propagation (a lane loaded from out-of-bounds
memory is poison; arithmetic on poison lanes yields poison; storing a poison
lane is a UB event the checker can observe).  The valid widths per dtype
derive from the registered targets' register sizes: a 256-bit register holds
8 int32 lanes, 16 int16 lanes or 4 int64 lanes.

:class:`PredValue` models one predicate register (SVE ``svbool_t``): a
per-lane active flag, again with poison flags — a predicate computed by
comparing poison data is itself unreliable, and a store governed by a poison
predicate lane is a UB event.  Predicates are first-class values alongside
vectors: the interpreter and the symbolic executor pass them through scopes,
assignments and intrinsic calls exactly like :class:`VecValue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.intrinsics import lanemath
from repro.intrinsics.lanemath import whilelt_lanes
from repro.lanetypes import ALL_LANE_TYPES, INT32, LaneType
from repro.targets import ALL_TARGETS

#: Register sizes with a registered target ISA, derived from the registry.
REGISTER_BITS = tuple(sorted({target.register_bits for target in ALL_TARGETS}))

#: Lane counts with a registered target ISA at the default (int32) element
#: type — the historical meaning of "valid width".
VALID_WIDTHS = tuple(sorted({bits // INT32.bits for bits in REGISTER_BITS}))

#: dtype name -> lane counts some registered register size can hold.
_WIDTHS_BY_DTYPE: dict[str, tuple[int, ...]] = {
    dtype.name: tuple(sorted({bits // dtype.bits for bits in REGISTER_BITS}))
    for dtype in ALL_LANE_TYPES
}

#: Union of the per-dtype width sets; predicates validate against this (the
#: dtype a predicate governs travels with the intrinsic that built it).
ALL_VALID_WIDTHS = tuple(sorted({
    width for widths in _WIDTHS_BY_DTYPE.values() for width in widths
}))


@dataclass(frozen=True)
class VecValue:
    """An integer vector: ``width`` signed ``dtype.bits``-bit lanes with
    poison flags."""

    lanes: tuple[int, ...]
    poison: tuple[bool, ...] = ()
    dtype: LaneType = INT32

    def __post_init__(self) -> None:
        if not self.poison:
            object.__setattr__(self, "poison", (False,) * len(self.lanes))
        widths = _WIDTHS_BY_DTYPE[self.dtype.name]
        if len(self.lanes) not in widths:
            raise ValueError(
                f"vector width {len(self.lanes)} is not one of {widths} "
                f"for {self.dtype.name} lanes"
            )
        if len(self.poison) != len(self.lanes):
            raise ValueError("poison flags must match the lane count")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_lanes(cls, lanes: Sequence[int],
                   poison: Sequence[bool] | None = None,
                   dtype: LaneType = INT32) -> "VecValue":
        wrapped = tuple(dtype.wrap(int(v)) for v in lanes)
        flags = (
            tuple(bool(p) for p in poison)
            if poison is not None
            else (False,) * len(wrapped)
        )
        return cls(wrapped, flags, dtype)

    @classmethod
    def splat(cls, value: int, width: int, dtype: LaneType = INT32) -> "VecValue":
        return cls.from_lanes([value] * width, dtype=dtype)

    @classmethod
    def zero(cls, width: int, dtype: LaneType = INT32) -> "VecValue":
        return cls.from_lanes([0] * width, dtype=dtype)

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.lanes)

    def _check_compatible(self, other: "VecValue") -> None:
        if other.width != self.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width} lanes"
            )
        if other.dtype is not self.dtype:
            raise ValueError(
                f"dtype mismatch: {self.dtype.name} vs {other.dtype.name} lanes"
            )

    # -- bulk combinators (whole-register lanemath kernels) -----------------

    def bulk_binary(self, other: "VecValue", op: str) -> "VecValue":
        """Named lane-wise binary op evaluated one register at a time by
        :mod:`repro.intrinsics.lanemath`."""
        self._check_compatible(other)
        lanes, poison = lanemath.binary_lanes(
            op, self.lanes, other.lanes, self.poison, other.poison,
            dtype=self.dtype,
        )
        return VecValue(lanes, poison, self.dtype)

    def bulk_unary(self, op: str) -> "VecValue":
        lanes, poison = lanemath.unary_lanes(op, self.lanes, self.poison,
                                             dtype=self.dtype)
        return VecValue(lanes, poison, self.dtype)

    def bulk_shift(self, op: str, count: int) -> "VecValue":
        lanes, poison = lanemath.shift_lanes(op, self.lanes, count,
                                             self.poison, dtype=self.dtype)
        return VecValue(lanes, poison, self.dtype)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "<" + ", ".join(str(v) for v in self.lanes) + ">"


@dataclass(frozen=True)
class PredValue:
    """A predicate register: per-lane active flags with poison flags."""

    lanes: tuple[bool, ...]
    poison: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.poison:
            object.__setattr__(self, "poison", (False,) * len(self.lanes))
        if len(self.lanes) not in ALL_VALID_WIDTHS:
            raise ValueError(
                f"predicate width {len(self.lanes)} is not one of "
                f"{ALL_VALID_WIDTHS}"
            )
        if len(self.poison) != len(self.lanes):
            raise ValueError("poison flags must match the lane count")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_lanes(cls, lanes: Sequence[bool],
                   poison: Sequence[bool] | None = None) -> "PredValue":
        flags = (
            tuple(bool(p) for p in poison)
            if poison is not None
            else (False,) * len(lanes)
        )
        return cls(tuple(bool(lane) for lane in lanes), flags)

    @classmethod
    def all_true(cls, width: int) -> "PredValue":
        return cls((True,) * width)

    @classmethod
    def whilelt(cls, base: int, bound: int, width: int) -> "PredValue":
        """The ``whilelt`` pattern: lane ``k`` active iff ``base + k < bound``."""
        return cls(whilelt_lanes(base, bound, width))

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.lanes)

    @property
    def any_active(self) -> bool:
        return any(self.lanes)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "<" + ", ".join("T" if lane else "." for lane in self.lanes) + ">"
