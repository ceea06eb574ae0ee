"""Type representation for the C subset.

Only the types that actually occur in TSVC kernels and their SIMD
vectorizations are modelled: the integer element types (``int`` plus the
sized ``int16_t``/``int64_t`` spellings of the registered lane types),
``void``, pointers to those integers, the integer vector types of the
registered target ISAs, and the predicate register types of
predicate-first targets (SVE's ``svbool_t``).  Which vector and predicate
types exist — and how many lanes each vector type holds — is *derived from
the target registry* (:data:`repro.targets.VECTOR_TYPE_LANES` /
:data:`repro.targets.PREDICATE_TYPE_NAMES`), so a new backend's types are
recognized here, in the lexer and in the parser without any code change;
which sized integer types exist is likewise derived from
:data:`repro.lanetypes.ALL_LANE_TYPES`.  Scalable vector types
(``svint32_t``) record :data:`~repro.targets.SCALABLE_LANES` (0) lanes:
the width is simulated per target and travels with the intrinsic names, so
declarations of such types always carry an initializer.  A handful of
aliases (``long``, ``unsigned``) are folded onto ``int`` because TSVC's
historical data is 32-bit; ``int32_t`` folds onto ``int`` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lanetypes import ALL_LANE_TYPES, INT32, LaneType, get_lane_type
from repro.targets.isa import PREDICATE_TYPE_NAMES, VECTOR_TYPE_LANES

#: Sized integer type names with their own :class:`CType` spelling
#: (``int16_t``, ``int64_t``).  The default lane type keeps the plain
#: ``int`` spelling, so it is excluded.
SIZED_INT_NAMES: frozenset = frozenset(
    lt.c_name for lt in ALL_LANE_TYPES if lt is not INT32
)

#: Every scalar integer type name the subset models.
INTEGER_TYPE_NAMES: frozenset = SIZED_INT_NAMES | {"int"}


@dataclass(frozen=True)
class CType:
    """A type in the C subset.

    ``name`` is one of ``int``, ``void`` or a registered vector type name;
    ``pointer_depth`` counts ``*`` wrappers (``int*`` has depth 1).
    """

    name: str
    pointer_depth: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_vector(self) -> bool:
        return self.name in VECTOR_TYPE_LANES and self.pointer_depth == 0

    @property
    def is_predicate(self) -> bool:
        return self.name in PREDICATE_TYPE_NAMES and self.pointer_depth == 0

    @property
    def vector_lanes(self) -> int:
        """Lane count of a vector type (raises for non-vector types).

        Scalable types return :data:`~repro.targets.SCALABLE_LANES` (0): the
        width is simulated per target, so a declaration of such a type must
        carry an initializer whose intrinsic determines the width.
        """
        if self.name not in VECTOR_TYPE_LANES or self.pointer_depth != 0:
            raise ValueError(f"{self} is not a vector type")
        return VECTOR_TYPE_LANES[self.name]

    @property
    def is_integer(self) -> bool:
        return self.name in INTEGER_TYPE_NAMES and self.pointer_depth == 0

    @property
    def lane_type(self) -> LaneType:
        """The lane element type of a scalar integer type (or a pointer to
        one): ``int`` is the default 32-bit lane type, the sized spellings
        map to their own."""
        if self.name not in INTEGER_TYPE_NAMES:
            raise ValueError(f"{self} is not an integer type")
        return get_lane_type(self.name)

    def pointee(self) -> "CType":
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer type")
        return CType(self.name, self.pointer_depth - 1)

    def pointer_to(self) -> "CType":
        return CType(self.name, self.pointer_depth + 1)

    def __str__(self) -> str:
        return self.name + "*" * self.pointer_depth


INT = CType("int")
VOID = CType("void")
PTR_INT = CType("int", 1)
INT16_T = CType("int16_t")
INT64_T = CType("int64_t")

#: Type specifiers that are collapsed onto plain ``int``.  ``int32_t`` is
#: exactly the default lane type, so it folds rather than keeping a sized
#: spelling of its own.
_INT_ALIASES = frozenset(
    {"int", "long", "short", "char", "signed", "unsigned", "int32_t"}
)


def normalize_base_type(specifiers: list[str]) -> CType:
    """Map a list of declaration specifiers to a base :class:`CType`.

    Qualifiers (``const``, ``static``, ``extern``) are dropped; the sized
    ``int16_t``/``int64_t`` spellings keep their identity, all other
    integer flavours collapse to ``int``.
    """
    relevant = [s for s in specifiers if s not in ("const", "static", "extern")]
    if not relevant:
        raise ValueError("empty declaration specifier list")
    for vector_name in VECTOR_TYPE_LANES:
        if vector_name in relevant:
            return CType(vector_name)
    for predicate_name in PREDICATE_TYPE_NAMES:
        if predicate_name in relevant:
            return CType(predicate_name)
    if "void" in relevant:
        return VOID
    for sized_name in SIZED_INT_NAMES:
        if sized_name in relevant:
            rest = [s for s in relevant if s != sized_name]
            if rest:
                raise ValueError(f"unsupported type specifiers: {specifiers}")
            return CType(sized_name)
    if all(s in _INT_ALIASES for s in relevant):
        return INT
    raise ValueError(f"unsupported type specifiers: {specifiers}")
