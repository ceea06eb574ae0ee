"""Memory model for the interpreter.

Arrays passed to a TSVC kernel live in distinct regions (the non-aliasing
assumption the paper establishes for verification, Section 3.1).  Each region
is a fixed-size buffer of integers at the kernel's lane element width
(32-bit by default) with a guard zone: reads inside the
declared extent return data, reads within the guard zone return *poison*
values and record a :class:`UBEvent`, and accesses beyond the guard raise
:class:`~repro.errors.UndefinedBehaviorError`.

The guard zone is what lets checksum-based testing *miss* the out-of-bounds
bug of the paper's s124 example while symbolic verification catches it: the
vector loop may read up to a vector width past the end of an array without
crashing, exactly as on real hardware with malloc slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import islice

from repro.errors import UndefinedBehaviorError
from repro.lanetypes import INT32, LaneType

#: Number of guard elements kept past the end of every array region.
GUARD_ELEMS = 16


@dataclass(frozen=True)
class UBEvent:
    """A record of undefined behaviour observed during execution."""

    kind: str
    region: str
    index: int
    detail: str = ""

    def __str__(self) -> str:
        return f"UB[{self.kind}] {self.region}[{self.index}] {self.detail}".rstrip()


class ArrayImage(tuple):
    """An immutable array of plain ints that records its smallest and largest value.

    Checksum suites hold their input arrays as images, checked once when
    they are drawn: :meth:`Memory.allocate` then compares the recorded
    range with the lane type's instead of scanning the values on every run.
    """

    low: int
    high: int

    def __new__(cls, values: Iterable[int]) -> ArrayImage:
        image = super().__new__(cls, values)
        if not set(map(type, image)) <= {int}:
            raise TypeError("an array image holds plain ints only")
        image.low = min(image, default=0)
        image.high = max(image, default=0)
        return image


@dataclass
class ArrayRegion:
    """A single array region: declared extent plus a guard zone."""

    name: str
    size: int
    data: list[int] = field(default_factory=list)
    poison: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        total = self.size + GUARD_ELEMS
        if not self.data:
            self.data = [0] * total
        if len(self.data) < total:
            self.data = list(self.data) + [0] * (total - len(self.data))
        if not self.poison:
            # Guard elements hold poison: reading them is observable UB.
            self.poison = [False] * self.size + [True] * GUARD_ELEMS

    def in_bounds(self, index: int) -> bool:
        return 0 <= index < self.size

    def in_guard(self, index: int) -> bool:
        return self.size <= index < self.size + GUARD_ELEMS

    def snapshot(self) -> list[int]:
        """Return the declared (non-guard) contents."""
        return list(self.data[: self.size])


class Memory:
    """A collection of named array regions plus a UB event log."""

    def __init__(self, dtype: LaneType = INT32):
        self.regions: dict[str, ArrayRegion] = {}
        #: Guard-zone accesses proceed with poison values; their events are
        #: only recorded here.
        self.ub_events: list[UBEvent] = []
        #: Lane element type every stored value wraps at.
        self.dtype = dtype
        self._wrap = dtype.wrap

    # -- region management ---------------------------------------------------

    def allocate(self, name: str, size: int, values: Iterable[int] | None = None) -> ArrayRegion:
        """Allocate a region named ``name`` with ``size`` declared elements.

        ``values`` (at most ``size`` of them are used) is copied once; the
        copy is wrapped to the lane type only when some value is not a
        plain int already inside its range.  An :class:`ArrayImage` that
        fits is copied without a scan; any other values are scanned.
        """
        if values is None:
            region = ArrayRegion(name=name, size=size)
        else:
            bound = self.dtype.sign_bit
            if type(values) is ArrayImage and len(values) <= size:
                data = list(values)
                plain = -bound <= values.low and values.high < bound
            else:
                data = list(islice(values, size))
                plain = not data or (set(map(type, data)) == {int}
                                     and -bound <= min(data) and max(data) < bound)
            if not plain:
                data = [self._wrap(v) for v in data]
            data += [0] * (size + GUARD_ELEMS - len(data))
            region = ArrayRegion(name=name, size=size, data=data)
        self.regions[name] = region
        return region

    def region(self, name: str) -> ArrayRegion:
        if name not in self.regions:
            raise UndefinedBehaviorError(f"access to unknown memory region {name!r}", "unknown-region")
        return self.regions[name]

    def has_region(self, name: str) -> bool:
        return name in self.regions

    # -- element access -------------------------------------------------------

    def load(self, name: str, index: int) -> tuple[int, bool]:
        """Load one element; returns ``(value, poison)``."""
        region = self.region(name)
        if region.in_bounds(index):
            return region.data[index], region.poison[index]
        if region.in_guard(index):
            self.ub_events.append(UBEvent("oob-read", name, index, "read in guard zone"))
            return region.data[index], True
        if -GUARD_ELEMS <= index < 0:
            self.ub_events.append(UBEvent("oob-read", name, index, "read before start"))
            return 0, True
        raise UndefinedBehaviorError(
            f"out-of-bounds read {name}[{index}] (size {region.size})", "oob-read-far"
        )

    def store(self, name: str, index: int, value: int, poison: bool = False) -> None:
        """Store one element, recording UB for guard-zone or poison stores."""
        region = self.region(name)
        if poison:
            self.ub_events.append(UBEvent("poison-store", name, index, "stored a poison value"))
        if region.in_bounds(index):
            region.data[index] = self._wrap(value)
            region.poison[index] = poison
            return
        if region.in_guard(index):
            self.ub_events.append(UBEvent("oob-write", name, index, "write in guard zone"))
            region.data[index] = self._wrap(value)
            region.poison[index] = True
            return
        if -GUARD_ELEMS <= index < 0:
            self.ub_events.append(UBEvent("oob-write", name, index, "write before start"))
            return
        raise UndefinedBehaviorError(
            f"out-of-bounds write {name}[{index}] (size {region.size})", "oob-write-far"
        )

    def load_vector(self, name: str, index: int, lanes: int) -> tuple[list[int], list[bool]]:
        values: list[int] = []
        poison: list[bool] = []
        for lane in range(lanes):
            value, is_poison = self.load(name, index + lane)
            values.append(value)
            poison.append(is_poison)
        return values, poison

    def store_vector(self, name: str, index: int, values: list[int], poison: list[bool]) -> None:
        for lane, (value, is_poison) in enumerate(zip(values, poison)):
            self.store(name, index + lane, value, is_poison)

    # -- observation ----------------------------------------------------------

    def snapshot(self) -> dict[str, list[int]]:
        """Declared contents of every region, for output comparison."""
        return {name: region.snapshot() for name, region in self.regions.items()}

    @property
    def has_ub(self) -> bool:
        return bool(self.ub_events)
