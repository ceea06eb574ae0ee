"""Pluggable vector-target layer: ISA descriptions consumed by every stage.

``repro.targets`` is the single source of truth for what a vector backend
*is*: lane count, vector type, intrinsic spelling (the bidirectional
op <-> name mapping), per-operation availability and cycle costs.  The
planner, code generator, interpreter, symbolic executor, lexer/parser
keyword sets, performance model and campaign engine all parameterize on a
:class:`TargetISA`; the AVX2 instance reproduces the paper's setup exactly
and remains the default everywhere.
"""

from repro.targets.isa import (
    ALL_TARGETS,
    AVX2,
    AVX512,
    DEFAULT_TARGET,
    NEON,
    PREDICATE_TYPE_NAMES,
    SCALABLE_LANES,
    SSE4,
    SVE128,
    SVE256,
    VECTOR_TYPE_BITS,
    VECTOR_TYPE_LANES,
    TargetISA,
    UnknownIntrinsicName,
    UnsupportedTargetOperation,
    contains_known_intrinsics,
    detect_target,
    dtype_of_spelling,
    get_target,
    known_intrinsic_spellings,
    resolve_intrinsic,
    target_names,
    vector_type_lanes_for,
)

__all__ = [
    "ALL_TARGETS",
    "AVX2",
    "AVX512",
    "DEFAULT_TARGET",
    "NEON",
    "PREDICATE_TYPE_NAMES",
    "SCALABLE_LANES",
    "SSE4",
    "SVE128",
    "SVE256",
    "VECTOR_TYPE_BITS",
    "VECTOR_TYPE_LANES",
    "TargetISA",
    "UnknownIntrinsicName",
    "UnsupportedTargetOperation",
    "contains_known_intrinsics",
    "detect_target",
    "dtype_of_spelling",
    "get_target",
    "known_intrinsic_spellings",
    "resolve_intrinsic",
    "target_names",
    "vector_type_lanes_for",
]
