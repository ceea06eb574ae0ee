"""The one bounded memo primitive behind every in-process cache.

A :class:`Memo` is a ``dict`` that empties itself when an insertion finds
it full.  Clear-on-full is deliberately simpler than LRU bookkeeping: one
campaign's working set sits far below every memo's capacity, so the bound
only keeps a long-lived process from growing without limit.  Because a memo
*is* a dict, a hit is a plain ``dict.get`` — the term builder and the
normalizer probe on every call — and only :meth:`Memo.put` applies the
bound.

:class:`IdentityMemo` keys on an object's identity, for values derived
from ASTs (shared and mutable, so never hashed by content).  Each entry
holds a strong reference to its key object: while the entry lives that
object cannot be collected, so no other object can reuse its ``id``.

Every memo registers itself on construction; :func:`clear_all` empties
every cache in the process.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from typing import Any, TypeVar

T = TypeVar("T")

#: Every live memo; a memo that is collected drops out by itself.
_registry: list[weakref.ref[Memo]] = []


class Memo(dict[Any, Any]):
    """A bounded memo: a ``dict`` cleared whenever an insertion finds it full."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        _registry.append(weakref.ref(self, _registry.remove))

    def make_room(self) -> None:
        """Apply the clear-on-full policy without inserting anything.

        For callers that then insert a batch of dependent entries by plain
        item assignment and must not lose the first ones to the last.
        """
        if len(self) >= self.capacity:
            self.clear()

    def put(self, key: Hashable, value: T) -> T:
        """Store ``value`` under ``key`` (emptying a full memo first); returns it."""
        self.make_room()
        self[key] = value
        return value


class IdentityMemo(Memo):
    """A memo keyed by an object's identity plus an optional hashable ``salt``."""

    def get_or_compute(self, obj: object, compute: Callable[[], T],
                       salt: Hashable = None) -> T:
        """``compute()``'s result for ``(obj, salt)``, computed once while memoized.

        Nothing is stored when ``compute`` raises.
        """
        key = (id(obj), salt)
        entry = self.get(key)
        if entry is None:
            entry = self.put(key, (obj, compute()))
        return entry[1]


def clear_all() -> None:
    """Empty every memo in the process (tests use it to measure from cold)."""
    for ref in list(_registry):
        memo = ref()
        if memo is not None:
            memo.clear()
