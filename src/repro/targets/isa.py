"""Target ISA descriptions: the data that defines a vector backend.

A :class:`TargetISA` bundles everything the pipeline needs to know about one
SIMD instruction set: how many 32-bit lanes a register holds, what the
vector type and the intrinsics are called, which generic operations the ISA
can express, and how its instructions are priced by the cycle simulator.

This module is the **only** place where concrete intrinsic spellings live.
Every other layer speaks in *generic operation* names (``add``, ``mul``,
``select``, ``loadu`` ...); the mapping to a target's spelling — and back —
is owned by the target:

* ``TargetISA.intrinsic(op)`` spells a generic op for the target;
* ``TargetISA.op_of(name)`` inverts one target's spelling;
* :func:`resolve_intrinsic` inverts any registered target's spelling and
  raises :class:`UnknownIntrinsicName` for spellings no target emits —
  callers must never guess or silently coerce an unknown name into some
  other ISA's grammar.

Six concrete instances ship here:

* ``SSE4``  — 4 lanes / 128-bit registers, x86 ``{prefix}_{op}_{suffix}``
  spellings;
* ``NEON``  — 4 lanes / 128-bit registers with the ARM ``v{op}q_s32``
  spelling scheme, which deliberately shares nothing with the x86 grammar;
* ``SVE128`` / ``SVE256`` — ARM SVE at two *simulated* vector lengths
  (scalable hardware modelled at fixed 128-/256-bit widths): the first
  *predicate-first* backend — ``svbool_t`` predicate registers govern
  memory, comparisons and selects, and there are no unpredicated loads or
  stores at all;
* ``AVX2``  — 8 lanes / 256-bit registers (the paper's target; every
  default in the pipeline resolves to it);
* ``AVX512`` — 16 lanes / 512-bit registers with native masked
  loads/stores/blends.

Everything downstream — the intrinsic registries, the planner's legality
window, code generation, the interpreter and symbolic executor, the lexer's
vector-type keywords, the cost model and the campaign engine — consumes
these descriptions, so adding a further backend (SVE, RVV, ...) is a
data-only change in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.lanetypes import INT32, LaneType, get_lane_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cfront derives
    from repro.cfront.ctypes import CType  # its vector types from this module)


class UnsupportedTargetOperation(KeyError):
    """A generic vector operation the active target cannot express
    (at the requested lane element type)."""

    def __init__(self, target: "TargetISA", op: str,
                 dtype: "LaneType | None" = None):
        dtype = get_lane_type(dtype)
        if dtype is INT32:
            message = f"{target.display_name} has no intrinsic for {op!r}"
        else:
            message = (f"{target.display_name} has no {dtype.name} "
                       f"intrinsic for {op!r}")
        super().__init__(message)
        self.target = target
        self.op = op
        self.dtype = dtype


class UnknownIntrinsicName(KeyError):
    """An intrinsic spelling that no registered target emits.

    Raised by the reverse mapping instead of guessing a target: mutating an
    unknown spelling into some ISA's grammar would silently change which
    backend a candidate belongs to.
    """

    def __init__(self, name: str):
        known = ", ".join(t.display_name for t in ALL_TARGETS)
        super().__init__(
            f"intrinsic spelling {name!r} belongs to no registered target ({known})"
        )
        self.name = name


def _x86_op_names(prefix: str, si: str, bits: int = 32,
                  **overrides: str) -> dict[str, str]:
    """The regular x86 naming scheme: ``{prefix}_{op}`` / ``{prefix}_{op}_{si}``.

    Keys are the ISA-neutral generic operation names the rest of the
    pipeline speaks; values are this scheme's concrete spellings at one lane
    element width (``bits``).  The ``si``-typed spellings (bitwise logic,
    whole-register memory, ``setzero``, the byte blend, the half permute)
    are element-type-free and come out identical at every width — the dtype
    of those operations travels with the kernel's declared element type, not
    with the intrinsic name.  Element-typed ops carry the ``_epi{bits}``
    suffix, and the availability holes of the real ISA are modelled:
    16-bit lanes have no masked memory and no in-block shuffle, 64-bit
    lanes additionally lack ``mullo``/``min``/``max``/``abs``/``srai``/
    ``hadd`` below AVX-512 (whose per-dtype overrides restore them).

    ``overrides`` replaces individual entries (e.g. AVX-512's native masked
    forms); mapping an op to an empty string removes it, which is how a
    target declares an operation unavailable.
    """
    e = f"epi{bits}"
    # 64-bit scalar-argument constructors spell the lane width as ``epi64x``
    # at the 128-/256-bit register sizes (``_mm512`` drops the ``x``).
    ctor = e if bits != 64 or prefix == "_mm512" else "epi64x"
    names = {
        # per-lane arithmetic / comparison
        "add": f"{prefix}_add_{e}",
        "sub": f"{prefix}_sub_{e}",
        "mul": f"{prefix}_mullo_{e}",
        "cmpgt": f"{prefix}_cmpgt_{e}",
        "cmpeq": f"{prefix}_cmpeq_{e}",
        "max": f"{prefix}_max_{e}",
        "min": f"{prefix}_min_{e}",
        "abs": f"{prefix}_abs_{e}",
        # full-register bitwise
        "and": f"{prefix}_and_{si}",
        "or": f"{prefix}_or_{si}",
        "xor": f"{prefix}_xor_{si}",
        "andnot": f"{prefix}_andnot_{si}",
        # per-lane selects and shifts
        "select": f"{prefix}_blendv_epi8",
        "srl": f"{prefix}_srli_{e}",
        "sll": f"{prefix}_slli_{e}",
        "sra": f"{prefix}_srai_{e}",
        # lane rearrangement
        "shuffle": f"{prefix}_shuffle_{e}",
        "hadd": f"{prefix}_hadd_{e}",
        "permute_halves": f"{prefix}_permute2x128_{si}",
        # memory
        "loadu": f"{prefix}_loadu_{si}",
        "storeu": f"{prefix}_storeu_{si}",
        "maskload": f"{prefix}_maskload_{e}",
        "maskstore": f"{prefix}_maskstore_{e}",
        # vector construction / extraction
        "set1": f"{prefix}_set1_{ctor}",
        "setzero": f"{prefix}_setzero_{si}",
        "setr": f"{prefix}_setr_{ctor}",
        "set": f"{prefix}_set_{ctor}",
        "extract": f"{prefix}_extract_{e}",
    }
    if bits == 16:
        # No ``_mm*_maskload_epi16`` and no in-block dword-style shuffle.
        for op in ("maskload", "maskstore", "shuffle"):
            names.pop(op)
    elif bits == 64:
        # Pre-AVX-512 holes; AVX-512's per-dtype overrides restore most.
        for op in ("mul", "max", "min", "abs", "sra", "shuffle", "hadd"):
            names.pop(op)
    for op, name in overrides.items():
        if name:
            names[op] = name
        else:
            names.pop(op, None)
    return names


def _neon_op_names(bits: int = 32) -> dict[str, str]:
    """The ARM NEON (AArch64 AdvSIMD) naming scheme at one element width.

    The ``_s{bits}`` suffix carries the element type in every spelling, so
    unlike x86 there are no shared dtype-free names.  64-bit lanes model the
    real AdvSIMD holes: no ``vmulq_s64`` and no ``vmaxq_s64``/``vminq_s64``
    (the A64 ISA has no 64-bit lane multiply or min/max).
    """
    s = f"s{bits}"
    names = {
        "add": f"vaddq_{s}",
        "sub": f"vsubq_{s}",
        "mul": f"vmulq_{s}",
        "cmpgt": f"vcgtq_{s}",
        "cmpeq": f"vceqq_{s}",
        "max": f"vmaxq_{s}",
        "min": f"vminq_{s}",
        "abs": f"vabsq_{s}",
        "and": f"vandq_{s}",
        "or": f"vorrq_{s}",
        "xor": f"veorq_{s}",
        "select": f"vbslq_{s}",
        "srl": f"vshrq_n_u{bits}",
        "sll": f"vshlq_n_{s}",
        "sra": f"vshrq_n_{s}",
        "hadd": f"vpaddq_{s}",
        "loadu": f"vld1q_{s}",
        "storeu": f"vst1q_{s}",
        "set1": f"vdupq_n_{s}",
        "setr": f"vsetq_{s}",
        "extract": f"vgetq_lane_{s}",
    }
    if bits == 64:
        for op in ("mul", "max", "min"):
            names.pop(op)
    return names


def _sve_op_names(vl_bits: int, bits: int = 32) -> dict[str, str]:
    """The ARM SVE (ACLE) naming scheme at one simulated vector length.

    Real ACLE spellings are deliberately VL-agnostic (``svadd_s32_x`` works
    at any hardware vector length); the pipeline's "width travels with the
    intrinsic name" invariant forces each *simulated* VL to stamp its width
    into the spelling (``_vl128`` / ``_vl256``), the same kind of model-level
    fidelity compromise the AVX-512 and NEON notes document.  Further
    fidelity notes: the unpredicated ``_x`` forms drop ACLE's governing
    predicate operand (an implicit all-true ``ptrue``), ``svptest_any`` takes
    one predicate instead of ACLE's two, and ``svget_lane_s32`` stands in
    for the ``svlasta``/compact dance a real single-lane extract needs.

    There is **no** ``loadu``/``storeu``/``cmpgt``/``select`` here: SVE has
    no unpredicated memory operations and its comparisons produce predicate
    registers, so the predicate-first generic ops (``pload``/``pstore``/
    ``pcmpgt``/``psel`` ...) are the only way to touch memory or build masks.

    SVE's op set is fully orthogonal over element types — ``bits`` swaps
    the ``_s32``/``_b32`` suffixes for ``_s16``/``_b16`` or ``_s64``/
    ``_b64`` without any availability holes, exactly like real ACLE.  The
    predicate logic ops (``svnot_b_z`` ...) are element-type-free on the
    ``svbool_t`` register and shared across dtypes.
    """
    s = f"_vl{vl_bits}"
    e = f"s{bits}"
    b = f"b{bits}"
    return {
        # unpredicated ("don't-care" _x form) data ops
        "add": f"svadd_{e}_x{s}",
        "sub": f"svsub_{e}_x{s}",
        "mul": f"svmul_{e}_x{s}",
        "max": f"svmax_{e}_x{s}",
        "min": f"svmin_{e}_x{s}",
        "abs": f"svabs_{e}_x{s}",
        "and": f"svand_{e}_x{s}",
        "or": f"svorr_{e}_x{s}",
        "xor": f"sveor_{e}_x{s}",
        "srl": f"svlsr_n_{e}_x{s}",
        "sll": f"svlsl_n_{e}_x{s}",
        "sra": f"svasr_n_{e}_x{s}",
        # construction / extraction
        "set1": f"svdup_n_{e}{s}",
        "index": f"svindex_{e}{s}",
        "extract": f"svget_lane_{e}{s}",
        # predicate construction and queries
        "ptrue": f"svptrue_{b}{s}",
        "whilelt": f"svwhilelt_{b}{s}",
        "ptest_any": f"svptest_any_{b}{s}",
        # predicate logic (zeroing forms, governed by the first operand;
        # element-type-free on the svbool_t register)
        "pnot": f"svnot_b_z{s}",
        "pand": f"svand_b_z{s}",
        "por": f"svorr_b_z{s}",
        # predicate-producing comparisons and predicate-consuming ops
        "pcmpgt": f"svcmpgt_{e}{s}",
        "pcmpeq": f"svcmpeq_{e}{s}",
        "psel": f"svsel_{e}{s}",
        "pload": f"svld1_{e}{s}",
        "pstore": f"svst1_{e}{s}",
        "padd": f"svadd_{e}_m{s}",
    }


@dataclass(frozen=True)
class TargetISA:
    """One vector backend, described entirely as data."""

    #: Canonical lowercase identifier used in configs, caches and env knobs.
    name: str
    #: Human-facing spelling used in prompts and rejection messages.
    display_name: str
    #: Number of 32-bit lanes per vector register.
    lanes: int
    #: The C vector type the backend's candidates declare.
    vector_type: str
    #: Intrinsic name prefix; informational (prompts, docs) — spelling goes
    #: through ``op_names``, never through string surgery on the prefix.
    prefix: str
    #: Generic operation -> concrete intrinsic name.  An op absent from this
    #: mapping is unavailable on the target.
    op_names: Mapping[str, str] = field(default_factory=dict)
    #: Cost-model category overrides (``vec_load`` ...) relative to the AVX2
    #: base table in :mod:`repro.perf.costmodel`.
    vector_cost_overrides: Mapping[str, float] = field(default_factory=dict)
    #: Header a candidate for this target conventionally includes.
    header: str = "immintrin.h"
    #: A gather spelling the target does *not* actually have; the synthetic
    #: LLM uses it to model "the model invented an intrinsic" failures.  It
    #: must never collide with a real ``op_names`` entry of any target.
    bogus_gather_spelling: str = ""
    #: C type of the target's predicate registers ("" = the target has no
    #: predicate registers; masks are ordinary data vectors).
    predicate_type: str = ""
    #: True when the architectural vector length is scalable and ``lanes``
    #: is one *simulated* fixed width.  Scalable vector types are shared
    #: across simulated widths, so their declarations always need an
    #: initializer — the width travels with the intrinsic names, never with
    #: the type.
    scalable: bool = False
    #: Generic operation tables for the non-default lane element types,
    #: keyed by dtype name (``"int16"``/``"int64"``).  ``op_names`` remains
    #: the int32 table.  An op absent from a dtype's table is unavailable on
    #: the target at that element type; a dtype absent entirely is
    #: unsupported by the target.
    op_names_by_dtype: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    #: C vector type per non-default dtype (dtype name -> type name).  ARM
    #: types carry the element type (``int16x8_t``, ``svint64_t``); x86's
    #: ``__m256i`` is element-type-free and used for every dtype, so x86
    #: targets leave this empty.
    vector_types_by_dtype: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        reverse: dict[str, str] = {}
        for op, spelled in self.op_names.items():
            if spelled in reverse:
                raise ValueError(
                    f"{self.display_name}: spelling {spelled!r} assigned to both "
                    f"{reverse[spelled]!r} and {op!r}"
                )
            reverse[spelled] = op
        object.__setattr__(self, "_ops_by_name", reverse)
        # Spellings across every dtype table (op identity is dtype-free:
        # one spelling may recur across dtype tables — the x86 ``si``-typed
        # names do — but always for the same generic op).
        all_spellings: dict[str, str] = dict(reverse)
        for table in self.op_names_by_dtype.values():
            for op, spelled in table.items():
                prior = all_spellings.setdefault(spelled, op)
                if prior != op:
                    raise ValueError(
                        f"{self.display_name}: spelling {spelled!r} assigned "
                        f"to both {prior!r} and {op!r}"
                    )
        object.__setattr__(self, "_ops_by_name_all", all_spellings)

    # -- capability queries -------------------------------------------------

    @property
    def register_bits(self) -> int:
        return self.lanes * 32

    def supports_dtype(self, dtype: "LaneType | str | None") -> bool:
        """Whether this target has an op table for ``dtype`` at all."""
        dtype = get_lane_type(dtype)
        return dtype is INT32 or dtype.name in self.op_names_by_dtype

    def lanes_for(self, dtype: "LaneType | str | None" = None) -> int:
        """Lane count of one register at ``dtype`` (default int32)."""
        return self.register_bits // get_lane_type(dtype).bits

    def op_table(self, dtype: "LaneType | str | None" = None) -> Mapping[str, str]:
        """The generic-op -> spelling table at one element type."""
        dtype = get_lane_type(dtype)
        if dtype is INT32:
            return self.op_names
        table = self.op_names_by_dtype.get(dtype.name)
        if table is None:
            raise ValueError(
                f"{self.display_name} has no {dtype.name} operation table"
            )
        return table

    def supports(self, op: str,
                 dtype: "LaneType | str | None" = None) -> bool:
        """Whether the generic operation ``op`` exists on this target (at
        the given lane element type; default int32)."""
        dtype = get_lane_type(dtype)
        if dtype is INT32:
            return op in self.op_names
        return op in self.op_names_by_dtype.get(dtype.name, {})

    @property
    def has_masked_memory(self) -> bool:
        """Whether the target can express masked loads *and* stores at all
        (natively or as AVX-style emulations).  NEON-class targets cannot:
        their masking is select-based and purely in-register.  SVE-class
        targets answer False too — their memory masking is predicate
        registers, a strictly stronger mechanism with its own legalization
        (:attr:`has_predicated_loops`)."""
        return self.supports("maskload") and self.supports("maskstore")

    @property
    def has_predicates(self) -> bool:
        """Whether masks live in predicate registers (``svbool_t``) rather
        than data vectors.  Predicate-first targets spell comparisons,
        selects and memory through the ``p*`` generic ops."""
        return bool(self.predicate_type)

    @property
    def plain_load_op(self) -> str:
        """Generic op of this target's plain full-width load: ``loadu``, or
        ``pload`` on predicate-first targets (whose every load is governed
        by a predicate — an all-true one for plain code)."""
        return "loadu" if self.supports("loadu") else "pload"

    @property
    def has_predicated_loops(self) -> bool:
        """Whether the target can retire a loop tail with a
        ``whilelt``-governed predicated main loop (no scalar epilogue, no
        masked-tail iteration): it needs predicate construction, a loop-exit
        test and predicate-governed memory."""
        return all(self.supports(op)
                   for op in ("whilelt", "ptest_any", "pload", "pstore"))

    # -- spelling (the bidirectional op <-> name mapping) -------------------

    def intrinsic(self, op: str,
                  dtype: "LaneType | str | None" = None) -> str:
        """Concrete intrinsic name for a generic op at one lane element
        type (default int32); raises if unavailable."""
        try:
            return self.op_table(dtype)[op]
        except (KeyError, ValueError):
            raise UnsupportedTargetOperation(self, op, dtype) from None

    def op_of(self, name: str) -> str:
        """Generic op of one of *this* target's spellings (raises otherwise)."""
        try:
            return self._ops_by_name_all[name]
        except KeyError:
            raise UnknownIntrinsicName(name) from None

    def zero_call(self, dtype: "LaneType | str | None" = None,
                  ) -> tuple[str, tuple[int, ...]]:
        """How this target materializes an all-zero register, as
        ``(intrinsic name, immediate args)``.

        x86 has a dedicated ``setzero``; NEON idiomatically broadcasts a zero
        (``vdupq_n_s32(0)``), so targets without ``setzero`` fall back to
        ``set1`` with a literal 0 argument.
        """
        if self.supports("setzero", dtype):
            return self.intrinsic("setzero", dtype), ()
        return self.intrinsic("set1", dtype), (0,)

    # -- C-type plumbing ----------------------------------------------------

    def vector_type_for(self, dtype: "LaneType | str | None" = None) -> str:
        """The C vector type at one lane element type (default int32)."""
        dtype = get_lane_type(dtype)
        if dtype is INT32:
            return self.vector_type
        named = self.vector_types_by_dtype.get(dtype.name)
        if named is not None:
            return named
        if not self.supports_dtype(dtype):
            raise ValueError(
                f"{self.display_name} has no {dtype.name} vector type"
            )
        return self.vector_type

    def vector_ctype_for(self, dtype: "LaneType | str | None" = None) -> "CType":
        from repro.cfront.ctypes import CType

        return CType(self.vector_type_for(dtype))

    def vector_pointer_ctype_for(self,
                                 dtype: "LaneType | str | None" = None) -> "CType":
        from repro.cfront.ctypes import CType

        return CType(self.vector_type_for(dtype), 1)

    @property
    def predicate_ctype(self) -> "CType":
        from repro.cfront.ctypes import CType

        if not self.predicate_type:
            raise ValueError(f"{self.display_name} has no predicate registers")
        return CType(self.predicate_type)


#: 4 x 32-bit lanes.  The 128-bit maskload is technically an AVX (VEX)
#: encoding of a 128-bit operation; it is included so masked-epilogue
#: candidates stay expressible at every x86 width.
SSE4 = TargetISA(
    name="sse4",
    display_name="SSE4",
    lanes=4,
    vector_type="__m128i",
    prefix="_mm",
    op_names=_x86_op_names("_mm", "si128", permute_halves=""),
    vector_cost_overrides={
        # 128-bit memory ops move half the data of the AVX2 base figures.
        "vec_load": 4.0,
        "vec_store": 4.0,
        "vec_maskload": 6.0,
        "vec_maskstore": 6.0,
        "vec_setr": 1.5,
        "vec_set": 1.5,
        "vec_extract": 2.0,
    },
    bogus_gather_spelling="_mm_gather_load_epi32",
    op_names_by_dtype={
        "int16": _x86_op_names("_mm", "si128", 16, permute_halves=""),
        "int64": _x86_op_names("_mm", "si128", 64, permute_halves=""),
    },
)

#: 4 x 32-bit lanes with the ARM NEON (AArch64 AdvSIMD) naming scheme: the
#: first backend whose spellings share nothing with the x86
#: ``{prefix}_{op}_{suffix}`` grammar, which is exactly why it exists —
#: any string surgery that survives elsewhere breaks on ``vaddq_s32``.
#:
#: NEON has **no masked loads or stores**: ``maskload``/``maskstore`` are
#: absent from the table, masking is select-based (``vbslq_s32``) and purely
#: in-register, and the planner/codegen reject masked-memory requests with a
#: message naming the gap.  There is also no zero-idiom intrinsic
#: (``zero_call`` falls back to ``vdupq_n_s32(0)``), no whole-register
#: ``set`` constructor and no in-register shuffle-by-immediate.
#:
#: Fidelity notes (same spirit as the AVX-512 ones): the pipeline keeps one
#: uniform call shape per generic op, so a few spellings are model-level
#: pseudo-intrinsics rather than verbatim ``arm_neon.h``: real
#: ``vbslq_s32`` takes the mask operand *first* (here it shares the
#: ``(else, then, mask)`` order of the other targets), ``vshrq_n_u32``
#: would need ``vreinterpretq`` casts around it for a logical shift of
#: signed data, and ``vsetq_s32`` stands in for the lane-by-lane
#: ``vsetq_lane_s32`` chain that a real ramp constant needs.
NEON = TargetISA(
    name="neon",
    display_name="NEON",
    lanes=4,
    vector_type="int32x4_t",
    prefix="v",
    op_names=_neon_op_names(),
    op_names_by_dtype={
        "int16": _neon_op_names(16),
        "int64": _neon_op_names(64),
    },
    vector_types_by_dtype={"int16": "int16x8_t", "int64": "int64x2_t"},
    vector_cost_overrides={
        # 128-bit memory ops, like SSE4; NEON multiplies are single-uop and
        # lane extraction is cheap on AArch64 cores.
        "vec_load": 4.0,
        "vec_store": 4.0,
        "vec_pure_vector": 1.5,
        "vec_setr": 1.5,
        "vec_extract": 1.5,
    },
    bogus_gather_spelling="vgatherq_s32",
    header="arm_neon.h",
)

#: ARM SVE at a simulated 128-bit vector length: 4 x 32-bit lanes behind the
#: scalable ``svint32_t``/``svbool_t`` types.  The first predicate-first
#: backend: comparisons produce ``svbool_t`` predicates (``svcmpgt_s32``),
#: selects consume them (``svsel_s32``), and **every** memory access is
#: predicate-governed (``svld1_s32``/``svst1_s32`` — there are no
#: unpredicated loads or stores in the table because the architecture has
#: none).  ``svwhilelt_b32`` + ``svptest_any`` give the tail-free
#: predicated-loop legalization the planner's ``predicated_loop`` epilogue
#: strategy emits.  See :func:`_sve_op_names` for the simulated-VL spelling
#: fidelity notes.
SVE128 = TargetISA(
    name="sve128",
    display_name="SVE (VL128)",
    lanes=4,
    vector_type="svint32_t",
    prefix="sv",
    op_names=_sve_op_names(128),
    op_names_by_dtype={
        "int16": _sve_op_names(128, 16),
        "int64": _sve_op_names(128, 64),
    },
    vector_types_by_dtype={"int16": "svint16_t", "int64": "svint64_t"},
    vector_cost_overrides={
        # 128-bit predicated memory moves half the data of the 256-bit base
        # figures (SVE has no unpredicated loads/stores, so only the
        # predicated categories need narrowing); lane extraction is cheap on
        # AArch64 cores.
        "vec_pload": 4.5,
        "vec_pstore": 4.5,
        "vec_extract": 1.5,
    },
    bogus_gather_spelling="svgather_index_s32_vl128",
    header="arm_sve.h",
    predicate_type="svbool_t",
    scalable=True,
)

#: ARM SVE at a simulated 256-bit vector length: the same scalable types and
#: predicate-first op set as :data:`SVE128` at 8 lanes.  Campaigns drive both
#: simulated VLs through ``CampaignRunner.run_multi_target`` to demonstrate
#: VL-agnostic verdicts — the same kernel must verify identically at either
#: width.
SVE256 = TargetISA(
    name="sve256",
    display_name="SVE (VL256)",
    lanes=8,
    vector_type="svint32_t",
    prefix="sv",
    op_names=_sve_op_names(256),
    op_names_by_dtype={
        "int16": _sve_op_names(256, 16),
        "int64": _sve_op_names(256, 64),
    },
    vector_types_by_dtype={"int16": "svint16_t", "int64": "svint64_t"},
    vector_cost_overrides={
        # 256-bit predicated memory: AVX2-class traffic plus the predicate
        # overhead.
        "vec_pload": 6.5,
        "vec_pstore": 6.5,
    },
    bogus_gather_spelling="svgather_index_s32_vl256",
    header="arm_sve.h",
    predicate_type="svbool_t",
    scalable=True,
)

#: 8 x 32-bit lanes — the paper's target; the behavioural baseline every
#: other backend is measured against.  No overrides: the AVX2 tables *are*
#: the base tables.  ``cast_low`` is the historical reduction-tail
#: reinterpret of the low 128-bit half, an AVX2-only extra spelling.
AVX2 = TargetISA(
    name="avx2",
    display_name="AVX2",
    lanes=8,
    vector_type="__m256i",
    prefix="_mm256",
    op_names=_x86_op_names("_mm256", "si256",
                           cast_low="_mm256_castsi256_si128"),
    bogus_gather_spelling="_mm256_gather_load_epi32",
    op_names_by_dtype={
        "int16": _x86_op_names("_mm256", "si256", 16),
        "int64": _x86_op_names("_mm256", "si256", 64),
    },
)

#: 16 x 32-bit lanes with native masked memory ops and blends.  Horizontal
#: adds and half-register permutes do not exist at 512 bits; reductions fall
#: back to per-lane extracts.
#:
#: Fidelity note: this backend keeps the pipeline's uniform call shapes, so
#: a few spellings are model-level pseudo-intrinsics rather than verbatim
#: immintrin.h: real AVX-512 comparisons return a 16-bit predicate mask,
#: the masked forms take the mask operand first, and there is no 512-bit
#: single-lane extract.  The semantics modelled (full-lane 0/-1 masks,
#: select/maskload argument order shared with the other targets) are what
#: the interpreter, symbolic executor and verifier implement; emitting
#: compilable AVX-512 C would need a thin renaming pass on top of this
#: table.
AVX512 = TargetISA(
    name="avx512",
    display_name="AVX-512",
    lanes=16,
    vector_type="__m512i",
    prefix="_mm512",
    op_names=_x86_op_names(
        "_mm512", "si512",
        select="_mm512_mask_blend_epi32",
        maskload="_mm512_mask_loadu_epi32",
        maskstore="_mm512_mask_storeu_epi32",
        hadd="",
        permute_halves="",
    ),
    op_names_by_dtype={
        # AVX-512BW: the full 16-bit lane op set, with native masked forms.
        "int16": _x86_op_names(
            "_mm512", "si512", 16,
            select="_mm512_mask_blend_epi16",
            maskload="_mm512_mask_loadu_epi16",
            maskstore="_mm512_mask_storeu_epi16",
            hadd="",
            permute_halves="",
        ),
        # AVX-512F/DQ restore the pre-512 64-bit holes: mullo (DQ),
        # min/max/abs (F) and an arithmetic 64-bit right shift.
        "int64": _x86_op_names(
            "_mm512", "si512", 64,
            mul="_mm512_mullo_epi64",
            max="_mm512_max_epi64",
            min="_mm512_min_epi64",
            abs="_mm512_abs_epi64",
            sra="_mm512_srai_epi64",
            select="_mm512_mask_blend_epi64",
            maskload="_mm512_mask_loadu_epi64",
            maskstore="_mm512_mask_storeu_epi64",
            permute_halves="",
        ),
    },
    vector_cost_overrides={
        # 512-bit ops: wider data per instruction, slightly worse latency
        # (port 5 pressure / licence-level downclock on Skylake-X-class cores).
        "vec_load": 8.0,
        "vec_store": 8.0,
        "vec_maskload": 9.0,
        "vec_maskstore": 9.0,
        "vec_pure_binary": 2.0,
        "vec_pure_vector": 2.5,
        "vec_setr": 3.0,
        "vec_set": 3.0,
        "vec_extract": 4.0,
    },
    bogus_gather_spelling="_mm512_gather_load_epi32",
)

#: Registration order doubles as the canonical narrow-to-wide ordering
#: (ties broken by registration: SSE4 before NEON before SVE128 at 4 lanes,
#: AVX2 — the default — before SVE256 at 8).
ALL_TARGETS: tuple[TargetISA, ...] = (SSE4, NEON, SVE128, AVX2, SVE256, AVX512)

DEFAULT_TARGET: TargetISA = AVX2

_ALIASES = {
    "sse": "sse4", "sse4": "sse4", "sse4.1": "sse4", "sse41": "sse4",
    "neon": "neon", "arm": "neon", "armv8": "neon", "asimd": "neon",
    "sve": "sve256", "sve128": "sve128", "sve-128": "sve128",
    "sve256": "sve256", "sve-256": "sve256", "sve2": "sve256",
    "avx2": "avx2", "avx": "avx2",
    "avx512": "avx512", "avx-512": "avx512", "avx512f": "avx512",
}

_BY_NAME = {target.name: target for target in ALL_TARGETS}


def _build_spelling_index() -> dict[str, tuple[str, str]]:
    """Intrinsic spelling -> (target name, generic op), across all targets
    and lane element types."""
    index: dict[str, tuple[str, str]] = {}
    for target in ALL_TARGETS:
        tables = [target.op_names, *target.op_names_by_dtype.values()]
        for table in tables:
            for op, spelled in table.items():
                existing = index.get(spelled)
                if existing is not None and existing[1] != op:
                    raise RuntimeError(
                        f"intrinsic spelling collision across targets: {spelled!r} "
                        f"is {existing[1]!r} on {existing[0]} but {op!r} on {target.name}"
                    )
                if existing is None:
                    index[spelled] = (target.name, op)
    return index


_SPELLING_INDEX = _build_spelling_index()


def _build_spelling_dtypes() -> dict[str, str]:
    """Spelling -> dtype name, for spellings dedicated to one element type.

    Dtype-free spellings (x86 ``si``-typed names, the byte blend, SVE
    predicate logic) are absent: their element type travels with the
    kernel's declared C types, not with the intrinsic name.
    """
    dedicated: dict[str, str] = {}
    shared: set[str] = set()
    for target in ALL_TARGETS:
        tables = {INT32.name: target.op_names, **target.op_names_by_dtype}
        for dtype_name, table in tables.items():
            for spelled in table.values():
                prior = dedicated.get(spelled)
                if spelled in shared:
                    continue
                if prior is None:
                    dedicated[spelled] = dtype_name
                elif prior != dtype_name:
                    dedicated.pop(spelled)
                    shared.add(spelled)
    return dedicated


_SPELLING_DTYPES = _build_spelling_dtypes()


def dtype_of_spelling(name: str) -> "LaneType | None":
    """The lane element type an intrinsic spelling is dedicated to, or
    ``None`` for dtype-free spellings shared across element types.

    Raises :class:`UnknownIntrinsicName` for spellings no target emits.
    """
    if name not in _SPELLING_INDEX:
        raise UnknownIntrinsicName(name)
    dtype_name = _SPELLING_DTYPES.get(name)
    return None if dtype_name is None else get_lane_type(dtype_name)


#: Lane count recorded for scalable vector types: the width is simulated
#: per target, so the *type* carries no width — declarations of a scalable
#: type always need an initializer, and the width travels with the intrinsic
#: names instead.
SCALABLE_LANES = 0


def _build_vector_type_lanes() -> dict[str, int]:
    table: dict[str, int] = {}
    for target in ALL_TARGETS:
        # The target's own (int32) vector type, plus any dtype-dedicated
        # type names (``int16x8_t``, ``svint64_t`` ...).  x86's
        # element-type-free register types stay at their int32 lane count —
        # reinterpreting them under another dtype needs the kernel's dtype
        # context (:func:`vector_type_lanes_for`).
        entries = [(target.vector_type,
                    SCALABLE_LANES if target.scalable else target.lanes)]
        for dtype_name, type_name in target.vector_types_by_dtype.items():
            if type_name == target.vector_type:
                continue
            lanes = (SCALABLE_LANES if target.scalable
                     else target.lanes_for(dtype_name))
            entries.append((type_name, lanes))
        for type_name, lanes in entries:
            existing = table.get(type_name)
            if existing is not None and existing != lanes:
                raise RuntimeError(
                    f"vector type {type_name!r} registered with both "
                    f"{existing} and {lanes} lanes"
                )
            table[type_name] = lanes
    return table


#: Vector type name -> 32-bit lane count, derived from the registered
#: targets.  The lexer/parser keyword sets and the C type model consume
#: this, so a new backend's vector type becomes a keyword automatically.
#: Scalable types map to :data:`SCALABLE_LANES` (0): the two simulated SVE
#: vector lengths share one ``svint32_t``, exactly as on real hardware.
VECTOR_TYPE_LANES: dict[str, int] = _build_vector_type_lanes()

#: Predicate register type names of every registered target (``svbool_t``);
#: the lexer/parser keyword sets and the C type model consume this the same
#: way they consume :data:`VECTOR_TYPE_LANES`.
PREDICATE_TYPE_NAMES: frozenset[str] = frozenset(
    target.predicate_type for target in ALL_TARGETS if target.predicate_type
)


def _build_vector_type_bits() -> dict[str, int]:
    """Vector type name -> register size in bits (0 for scalable types)."""
    table: dict[str, int] = {}
    for target in ALL_TARGETS:
        names = {target.vector_type, *target.vector_types_by_dtype.values()}
        bits = 0 if target.scalable else target.register_bits
        for type_name in names:
            existing = table.get(type_name)
            if existing is not None and existing != bits:
                raise RuntimeError(
                    f"vector type {type_name!r} registered with both "
                    f"{existing} and {bits} register bits"
                )
            table[type_name] = bits
    return table


#: Vector type name -> register size in bits (0 = scalable).  The dtype
#: context needed to reinterpret an element-type-free register type
#: (``__m256i`` as 8 int32 / 16 int16 / 4 int64 lanes) enters through
#: :func:`vector_type_lanes_for`.
VECTOR_TYPE_BITS: dict[str, int] = _build_vector_type_bits()


def vector_type_lanes_for(type_name: str,
                          dtype: "LaneType | str | None" = None) -> int:
    """Lane count of a vector type at one lane element type.

    Scalable types return :data:`SCALABLE_LANES` (the width travels with
    the intrinsic names, never with the type).  Without an explicit
    ``dtype`` the type's registered natural lane count applies — dedicated
    type names (``int64x2_t``) carry their own element type, and the
    element-type-free x86 register types default to int32.
    """
    bits = VECTOR_TYPE_BITS[type_name]
    if bits == 0:
        return SCALABLE_LANES
    if dtype is None:
        return VECTOR_TYPE_LANES[type_name]
    return bits // get_lane_type(dtype).bits


def target_names() -> list[str]:
    """Canonical names of all registered targets, narrow to wide."""
    return [target.name for target in ALL_TARGETS]


def get_target(target: "TargetISA | str | None") -> TargetISA:
    """Resolve a target spec (instance, name/alias, or None -> default)."""
    if target is None:
        return DEFAULT_TARGET
    if isinstance(target, TargetISA):
        return target
    canonical = _ALIASES.get(str(target).strip().lower())
    if canonical is None:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown target ISA {target!r} (known: {known})")
    return _BY_NAME[canonical]


def resolve_intrinsic(name: str) -> tuple[TargetISA, str]:
    """Invert an intrinsic spelling: ``(owning target, generic op)``.

    Spellings shared by several targets resolve to the first registrant.
    Raises :class:`UnknownIntrinsicName` for spellings no target emits —
    never coerces an unknown name into another ISA's grammar.
    """
    entry = _SPELLING_INDEX.get(name)
    if entry is None:
        raise UnknownIntrinsicName(name)
    target_name, op = entry
    return _BY_NAME[target_name], op


def known_intrinsic_spellings() -> frozenset[str]:
    """Every intrinsic spelling any registered target emits."""
    return frozenset(_SPELLING_INDEX)


def contains_known_intrinsics(source: str) -> bool:
    """Whether ``source`` mentions any registered target's intrinsics."""
    return any(name in source for name in _SPELLING_INDEX)


def detect_target(source: str, default: "TargetISA | str | None" = None) -> TargetISA:
    """Infer the target ISA of candidate C source from its intrinsic spellings.

    The widest target with a spelling hit wins (an AVX2 reduction tail may
    legitimately contain the narrow ``cast_low`` + 4-lane extract idiom);
    source with no registered intrinsics at all resolves to ``default`` (the
    pipeline default when not given).
    """
    for target in sorted(ALL_TARGETS, key=lambda t: -t.lanes):
        tables = [target.op_names, *target.op_names_by_dtype.values()]
        if any(name in source for table in tables for name in table.values()):
            return target
    return get_target(default)
