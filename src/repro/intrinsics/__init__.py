"""Semantic models of the SIMD intrinsics used by TSVC vectorizations.

Each intrinsic is modelled at lane level over Python integers with
two's-complement wraparound semantics at the lane element type's width, so
the interpreter and the symbolic encoder share one source of truth for what
every target's vector-multiply and friends mean.  The model is width- and
dtype-parametric: one generic operation table is materialized per registered
target ISA and element type under that target's own spellings, and the
merged registry lets execution layers handle candidates of any width and
naming scheme — the lane count and element type travel with the intrinsic
name (or, for the dtype-free x86 ``si``-typed spellings, with the kernel's
declared element type).
"""

from repro.lanetypes import (
    ALL_LANE_TYPES,
    DEFAULT_LANE_TYPE,
    INT16,
    INT32,
    INT64,
    LaneType,
    get_lane_type,
)
from repro.intrinsics.registry import (
    INTRINSIC_REGISTRY,
    IntrinsicSpec,
    apply_pure_intrinsic,
    build_registry,
    is_intrinsic,
    lookup_intrinsic,
    registry_for,
    registry_for_dtype,
)
from repro.intrinsics.values import PredValue, VecValue

__all__ = [
    "ALL_LANE_TYPES",
    "DEFAULT_LANE_TYPE",
    "INT16",
    "INT32",
    "INT64",
    "INTRINSIC_REGISTRY",
    "IntrinsicSpec",
    "LaneType",
    "PredValue",
    "VecValue",
    "apply_pure_intrinsic",
    "build_registry",
    "get_lane_type",
    "is_intrinsic",
    "lookup_intrinsic",
    "registry_for",
    "registry_for_dtype",
]
