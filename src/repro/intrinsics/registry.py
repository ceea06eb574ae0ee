"""Per-target intrinsic registries built from one generic operation table.

Each generic operation (``add``, ``select``, ``loadu`` ...) is defined once
— its kind, arity, base cycle cost and whole-vector semantics — and
materialized per :class:`~repro.targets.TargetISA` and lane element type
under the target's concrete spellings (``repro.targets`` owns the spelling;
:mod:`repro.intrinsics.lanemath` owns the per-lane arithmetic, which the
plain lane ops reach by name).  The merged :data:`INTRINSIC_REGISTRY` spans
every registered target, so the interpreter and the symbolic executor can
execute candidates of any width and naming scheme without being told which
backend produced them: the width travels with the intrinsic name.  The element type
travels with the name too for dtype-suffixed spellings (``_epi16``,
``_s64`` ...); the x86 ``si``-typed spellings are element-type-free and
resolve through the kernel's declared element type
(:func:`lookup_intrinsic`'s ``dtype`` argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import CompileError
from repro.intrinsics import lanemath
from repro.intrinsics.lanemath import whilelt_lanes
from repro.intrinsics.values import PredValue, VecValue
from repro.lanetypes import (
    ALL_LANE_TYPES,
    DEFAULT_LANE_TYPE,
    LaneType,
    get_lane_type,
)
from repro.targets import ALL_TARGETS, TargetISA, get_target


@dataclass(frozen=True)
class IntrinsicSpec:
    """Description of one intrinsic: arity, kind, cost, width and generic op.

    ``kind`` is one of ``pure_binary``/``pure_unary`` (a named lane op that
    :mod:`repro.intrinsics.lanemath` evaluates; ``fn`` is None),
    ``pure_vector`` (whole-vector function), ``pure_imm`` /
    ``pure_imm2`` (vector plus immediates), ``load``/``store``/``maskload``/
    ``maskstore`` (handled by the interpreter, which owns the memory model),
    ``set``/``setr``/``set1``/``setzero``/``index`` (vector construction),
    ``extract`` (vector to scalar) and ``cast_low`` (reinterpret of the low
    register half).  Predicate-first targets add ``ptrue``/``whilelt``
    (predicate construction), ``ptest`` (predicate to scalar),
    ``pred_unary``/``pred_binary`` (zeroing predicate logic, governed by the
    first operand), ``pred_cmp`` (vectors to predicate), ``psel``
    (predicate-selected blend), ``pred_merge_binary`` (merging predicated
    arithmetic) and ``pload``/``pstore`` (predicate-governed memory, handled
    by the interpreter).  ``cycle_cost`` is the rough reciprocal throughput
    fed to the registry consumers; ``lanes`` is the register width in lanes
    of the spec's element type; ``op`` is the generic operation name shared
    across targets; ``dtype`` names the lane element type the spec models.
    """

    name: str
    arity: int
    kind: str
    cycle_cost: float
    fn: Callable | None = None
    lanes: int = 8
    op: str = ""
    target: str = "avx2"
    dtype: str = "int32"

    @property
    def lane_type(self) -> LaneType:
        return get_lane_type(self.dtype)


# ---------------------------------------------------------------------------
# width- and dtype-agnostic whole-vector semantics
# ---------------------------------------------------------------------------


def _select(a: VecValue, b: VecValue, mask: VecValue) -> VecValue:
    """Per-byte select; TSVC vectorizations only use full-lane masks (0 / -1).

    The byte-accurate behaviour is modelled by selecting each byte of the
    lane according to the sign bit of the corresponding mask byte.  The same
    semantics serve the x86 byte blends, AVX-512's lane-masked blend (whose
    masks are full lanes by construction in this pipeline) and NEON's bit
    select (ditto).
    """
    lanes, poison = lanemath.select_lanes(
        a.lanes, b.lanes, mask.lanes, a.poison, b.poison, mask.poison,
        dtype=a.dtype,
    )
    return VecValue(lanes, poison, a.dtype)


def _srl(a: VecValue, count: int) -> VecValue:
    return a.bulk_shift("srl", count)


def _sll(a: VecValue, count: int) -> VecValue:
    return a.bulk_shift("sll", count)


def _sra(a: VecValue, count: int) -> VecValue:
    return a.bulk_shift("sra", count)


def _permute_halves(a: VecValue, b: VecValue, imm: int) -> VecValue:
    """Select register halves of ``a``/``b`` according to ``imm`` (AVX2 only)."""
    half = a.width // 2
    halves = [a.lanes[:half], a.lanes[half:], b.lanes[:half], b.lanes[half:]]
    half_poison = [a.poison[:half], a.poison[half:],
                   b.poison[:half], b.poison[half:]]
    imm = int(imm)
    low_sel = imm & 0x3
    high_sel = (imm >> 4) & 0x3
    low_zero = bool(imm & 0x08)
    high_zero = bool(imm & 0x80)
    low = (0,) * half if low_zero else halves[low_sel]
    high = (0,) * half if high_zero else halves[high_sel]
    low_p = (False,) * half if low_zero else half_poison[low_sel]
    high_p = (False,) * half if high_zero else half_poison[high_sel]
    return VecValue(tuple(low) + tuple(high), tuple(low_p) + tuple(high_p),
                    a.dtype)


def _shuffle_lanes(a: VecValue, imm: int) -> VecValue:
    """Shuffle 32-bit lanes within each 128-bit block, at any register width.

    The op only exists in the int32 tables (``_mm*_shuffle_epi32``), so the
    4-lane blocks are structural, not a dtype assumption.
    """
    imm = int(imm)
    selectors = [(imm >> (2 * i)) & 0x3 for i in range(4)]
    out_lanes = []
    out_poison = []
    for block in range(a.width // 4):
        base = block * 4
        for sel in selectors:
            out_lanes.append(a.lanes[base + sel])
            out_poison.append(a.poison[base + sel])
    return VecValue(tuple(out_lanes), tuple(out_poison), a.dtype)


def _hadd(a: VecValue, b: VecValue) -> VecValue:
    """Horizontal pairwise add within 128-bit blocks.

    Each block holds ``128 // dtype.bits`` lanes; the block's output is the
    adjacent-pair sums of ``a`` followed by those of ``b``, matching
    ``_mm*_hadd_epi16/epi32`` (and the pairwise-add shape of ``vpaddq``).
    """
    dtype = a.dtype
    block_lanes = 128 // dtype.bits
    out_lanes = []
    out_poison = []
    for block in range(a.width // block_lanes):
        base = block * block_lanes
        for src in (a, b):
            for pair in range(block_lanes // 2):
                i = base + 2 * pair
                out_lanes.append(dtype.wrap(src.lanes[i] + src.lanes[i + 1]))
                out_poison.append(src.poison[i] or src.poison[i + 1])
    return VecValue(tuple(out_lanes), tuple(out_poison), dtype)


def _require_pred(value, name: str) -> PredValue:
    if not isinstance(value, PredValue):
        raise CompileError(f"{name} operand is not a predicate value")
    return value


def _require_vec(value, name: str) -> VecValue:
    if not isinstance(value, VecValue):
        raise CompileError(f"{name} operand is not a vector value")
    return value


def _require_scalar(value, name: str) -> int:
    if not isinstance(value, int):
        raise CompileError(f"{name} operand is not a scalar value")
    return int(value)


def _pred_not(gov: PredValue, p: PredValue) -> PredValue:
    """Zeroing predicate NOT: active where the governing predicate is active
    and ``p`` is not (ACLE ``svnot_b_z`` semantics)."""
    lanes, poison = lanemath.pred_not_lanes(
        gov.lanes, p.lanes, gov.poison, p.poison
    )
    return PredValue(lanes, poison)


def _pred_logic_fn(op: str):
    """Zeroing predicate AND/OR, governed by the first operand."""

    def logic(gov: PredValue, a: PredValue, b: PredValue) -> PredValue:
        lanes, poison = lanemath.pred_logic_lanes(
            op, gov.lanes, a.lanes, b.lanes, gov.poison, a.poison, b.poison
        )
        return PredValue(lanes, poison)

    return logic


def _pred_cmp_fn(op: str):
    """A predicate-producing comparison: active lanes of the governing
    predicate compare; inactive lanes come back false (zeroing)."""

    def compare(gov: PredValue, a: VecValue, b: VecValue) -> PredValue:
        lanes, poison = lanemath.pred_cmp_lanes(
            op, gov.lanes, a.lanes, b.lanes, gov.poison, a.poison, b.poison,
            dtype=a.dtype,
        )
        return PredValue(lanes, poison)

    return compare


def _psel(pred: PredValue, a: VecValue, b: VecValue) -> VecValue:
    """Predicate-selected blend: active lanes from ``a``, inactive from ``b``
    (ACLE ``svsel`` operand order — predicate first, then-value second)."""
    lanes, poison = lanemath.psel_lanes(
        pred.lanes, a.lanes, b.lanes, pred.poison, a.poison, b.poison,
        dtype=a.dtype,
    )
    return VecValue(lanes, poison, a.dtype)


def _pred_merge_fn(op: str):
    """Merging predicated arithmetic (``_m`` form): active lanes compute,
    inactive lanes keep the first data operand."""

    def merge(pred: PredValue, a: VecValue, b: VecValue) -> VecValue:
        lanes, poison = lanemath.pred_merge_lanes(
            op, pred.lanes, a.lanes, b.lanes, pred.poison, a.poison, b.poison,
            dtype=a.dtype,
        )
        return VecValue(lanes, poison, a.dtype)

    return merge


# ---------------------------------------------------------------------------
# the generic operation table
# ---------------------------------------------------------------------------

#: op -> (kind, arity, base cycle cost, function).  ``arity = -1`` means one
#: argument per lane (the set/setr constructors).  The plain lane ops
#: (``pure_binary``/``pure_unary``) and the interpreter-owned kinds have no
#: function here.  Costs are the AVX2 base
#: figures; targets override per op via ``intrinsic_cost_overrides``.
_GENERIC_OPS: dict[str, tuple[str, int, float, Callable | None]] = {
    "add": ("pure_binary", 2, 0.5, None),
    "sub": ("pure_binary", 2, 0.5, None),
    "mul": ("pure_binary", 2, 2.0, None),
    "cmpgt": ("pure_binary", 2, 0.5, None),
    "cmpeq": ("pure_binary", 2, 0.5, None),
    "max": ("pure_binary", 2, 0.5, None),
    "min": ("pure_binary", 2, 0.5, None),
    "and": ("pure_binary", 2, 0.33, None),
    "or": ("pure_binary", 2, 0.33, None),
    "xor": ("pure_binary", 2, 0.33, None),
    "andnot": ("pure_binary", 2, 0.33, None),
    "abs": ("pure_unary", 1, 0.5, None),
    "select": ("pure_vector", 3, 1.0, _select),
    "hadd": ("pure_vector", 2, 2.0, _hadd),
    "srl": ("pure_imm", 2, 0.5, _srl),
    "sll": ("pure_imm", 2, 0.5, _sll),
    "sra": ("pure_imm", 2, 0.5, _sra),
    "shuffle": ("pure_imm", 2, 1.0, _shuffle_lanes),
    "permute_halves": ("pure_imm2", 3, 3.0, _permute_halves),
    "loadu": ("load", 1, 3.0, None),
    "storeu": ("store", 2, 3.0, None),
    "maskload": ("maskload", 2, 4.0, None),
    "maskstore": ("maskstore", 3, 4.0, None),
    "set1": ("set1", 1, 1.0, None),
    "setzero": ("setzero", 0, 0.33, None),
    "setr": ("setr", -1, 1.0, None),
    "set": ("set", -1, 1.0, None),
    "extract": ("extract", 2, 2.0, None),
    # Reduction tails historically extract through the low register half;
    # the cast is a free reinterpret, modelled as a width truncation.
    "cast_low": ("cast_low", 1, 0.0, None),
    # SVE's ramp constructor: lanes[k] = base + step * k.
    "index": ("index", 2, 1.0, None),
    # predicate construction, queries and logic (predicate-first targets)
    "ptrue": ("ptrue", 0, 0.5, None),
    "whilelt": ("whilelt", 2, 1.0, None),
    "ptest_any": ("ptest", 1, 1.0, None),
    "pnot": ("pred_unary", 2, 0.5, _pred_not),
    "pand": ("pred_binary", 3, 0.5, _pred_logic_fn("and")),
    "por": ("pred_binary", 3, 0.5, _pred_logic_fn("or")),
    # predicate-producing comparisons, predicate-consuming data ops
    "pcmpgt": ("pred_cmp", 3, 0.5, _pred_cmp_fn("cmpgt")),
    "pcmpeq": ("pred_cmp", 3, 0.5, _pred_cmp_fn("cmpeq")),
    "psel": ("psel", 3, 1.0, _psel),
    "padd": ("pred_merge_binary", 3, 0.5, _pred_merge_fn("add")),
    # predicate-governed memory (the interpreter owns the memory model)
    "pload": ("pload", 2, 3.5, None),
    "pstore": ("pstore", 3, 3.5, None),
}


def build_registry(target: TargetISA,
                   dtype: "LaneType | str | None" = None,
                   ) -> dict[str, IntrinsicSpec]:
    """Materialize the generic operation table for one target and dtype."""
    lane_type = get_lane_type(dtype)
    if not target.supports_dtype(lane_type):
        return {}
    lanes = target.lanes_for(lane_type)
    registry: dict[str, IntrinsicSpec] = {}
    for op, (kind, arity, base_cost, fn) in _GENERIC_OPS.items():
        if not target.supports(op, lane_type):
            continue
        name = target.intrinsic(op, lane_type)
        cost = target.intrinsic_cost_overrides.get(op, base_cost)
        registry[name] = IntrinsicSpec(
            name=name,
            arity=arity if arity >= 0 else lanes,
            kind=kind,
            cycle_cost=cost,
            fn=fn,
            lanes=lanes,
            op=op,
            target=target.name,
            dtype=lane_type.name,
        )
    return registry


def _build_merged_registry(lane_type: LaneType) -> dict[str, IntrinsicSpec]:
    merged: dict[str, IntrinsicSpec] = {}
    for target in ALL_TARGETS:
        for name, spec in build_registry(target, lane_type).items():
            existing = merged.get(name)
            if existing is not None and existing.op != spec.op:
                raise RuntimeError(
                    f"intrinsic name collision across targets: {name}"
                )
            merged[name] = spec
    return merged


#: (target name, dtype name) -> registry; one entry per supported pairing.
_TARGET_REGISTRIES_BY_DTYPE: dict[tuple[str, str], dict[str, IntrinsicSpec]] = {
    (target.name, lane_type.name): build_registry(target, lane_type)
    for target in ALL_TARGETS
    for lane_type in ALL_LANE_TYPES
    if target.supports_dtype(lane_type)
}

#: Per-target int32 registries — the historical (default-dtype) view.
TARGET_REGISTRIES: dict[str, dict[str, IntrinsicSpec]] = {
    target.name: _TARGET_REGISTRIES_BY_DTYPE[
        (target.name, DEFAULT_LANE_TYPE.name)
    ]
    for target in ALL_TARGETS
}

#: dtype name -> cross-target merged registry.  Shared (element-type-free)
#: x86 spellings appear in several of these with dtype-appropriate specs;
#: dtype-suffixed spellings appear in exactly one.
_MERGED_BY_DTYPE: dict[str, dict[str, IntrinsicSpec]] = {
    lane_type.name: _build_merged_registry(lane_type)
    for lane_type in ALL_LANE_TYPES
}

#: The historical merged view: every intrinsic at the default (int32) dtype.
INTRINSIC_REGISTRY: dict[str, IntrinsicSpec] = _MERGED_BY_DTYPE[
    DEFAULT_LANE_TYPE.name
]


def registry_for(target: "TargetISA | str | None",
                 dtype: "LaneType | str | None" = None,
                 ) -> dict[str, IntrinsicSpec]:
    """The registry restricted to one target's intrinsics at one dtype."""
    key = (get_target(target).name, get_lane_type(dtype).name)
    try:
        return _TARGET_REGISTRIES_BY_DTYPE[key]
    except KeyError:
        raise KeyError(
            f"target {key[0]!r} does not support lane type {key[1]!r}"
        ) from None


def registry_for_dtype(dtype: "LaneType | str | None",
                       ) -> dict[str, IntrinsicSpec]:
    """The cross-target merged registry at one lane element type."""
    return _MERGED_BY_DTYPE[get_lane_type(dtype).name]


def is_intrinsic(name: str) -> bool:
    """Return True if ``name`` is a modelled SIMD intrinsic (any target,
    any lane element type)."""
    return any(name in registry for registry in _MERGED_BY_DTYPE.values())


def lookup_intrinsic(name: str,
                     dtype: "LaneType | str | None" = None,
                     ) -> IntrinsicSpec:
    """Return the spec for ``name``; raises ``KeyError`` for unknown intrinsics.

    ``dtype`` is the kernel's element-type context: it decides how the x86
    ``si``-typed (element-type-free) spellings are modelled.  Spellings that
    carry their own dtype suffix resolve regardless of the context, so a
    lookup never needs the context to be right to find a suffixed name.
    """
    if dtype is not None:
        spec = _MERGED_BY_DTYPE[get_lane_type(dtype).name].get(name)
        if spec is not None:
            return spec
    spec = INTRINSIC_REGISTRY.get(name)
    if spec is not None:
        return spec
    for registry in _MERGED_BY_DTYPE.values():
        spec = registry.get(name)
        if spec is not None:
            return spec
    raise KeyError(name)


def apply_pure_intrinsic(name: str, args: list,
                         dtype: "LaneType | str | None" = None,
                         ) -> "VecValue | PredValue | int":
    """Apply a pure (non-memory) intrinsic to already-evaluated arguments.

    ``args`` holds :class:`VecValue` / :class:`PredValue` operands and Python
    ints for scalar / immediate operands, in call order.  Memory intrinsics
    are handled by the interpreter, which owns the memory model.  ``dtype``
    is the kernel's element-type context for the element-type-free x86
    spellings (see :func:`lookup_intrinsic`).

    Operand widths are validated against the intrinsic's register width (and
    ``setr``/``set`` argument counts against the lane count) up front, so a
    candidate mixing register widths is rejected like a C compiler would
    reject it rather than silently truncated by the lane-wise zips below.
    Every operand must have the kind its position takes (vector, predicate,
    or an int for scalars and immediates); anything else is a
    :class:`~repro.errors.CompileError`.
    """
    return apply_pure_spec(lookup_intrinsic(name, dtype), args)


def apply_pure_spec(spec: IntrinsicSpec, args: list,
                    ) -> "VecValue | PredValue | int":
    """:func:`apply_pure_intrinsic` for an already looked-up ``spec``."""
    name = spec.name
    if spec.kind in ("setr", "set"):
        if len(args) != spec.lanes:
            raise CompileError(
                f"{name} takes {spec.lanes} lane arguments, got {len(args)}"
            )
    else:
        for arg in args:
            if isinstance(arg, (VecValue, PredValue)) and arg.width != spec.lanes:
                raise CompileError(
                    f"{name} operand has {arg.width} lanes, expected {spec.lanes}"
                )
            if isinstance(arg, VecValue) and arg.dtype.name != spec.dtype:
                raise CompileError(
                    f"{name} operand has {arg.dtype.name} lanes, "
                    f"expected {spec.dtype}"
                )
    if spec.kind == "ptrue":
        return PredValue.all_true(spec.lanes)
    if spec.kind == "whilelt":
        return PredValue(whilelt_lanes(_require_scalar(args[0], name),
                                       _require_scalar(args[1], name),
                                       spec.lanes))
    if spec.kind == "ptest":
        # Scalar results drop poison, like ``extract``: the concrete model
        # keeps poison on register lanes only (the symbolic executor is the
        # sound substrate and reports a poison-fed ptest as Inconclusive).
        return 1 if _require_pred(args[0], name).any_active else 0
    if spec.kind == "pred_unary":
        return spec.fn(_require_pred(args[0], name), _require_pred(args[1], name))
    if spec.kind == "pred_binary":
        return spec.fn(_require_pred(args[0], name),
                       _require_pred(args[1], name),
                       _require_pred(args[2], name))
    if spec.kind == "pred_cmp":
        return spec.fn(_require_pred(args[0], name),
                       _require_vec(args[1], name),
                       _require_vec(args[2], name))
    if spec.kind in ("psel", "pred_merge_binary"):
        return spec.fn(_require_pred(args[0], name),
                       _require_vec(args[1], name),
                       _require_vec(args[2], name))
    if spec.kind == "index":
        base = _require_scalar(args[0], name)
        step = _require_scalar(args[1], name)
        return VecValue.from_lanes(
            [base + step * lane for lane in range(spec.lanes)],
            dtype=spec.lane_type,
        )
    if spec.kind == "pure_binary":
        # Named lane ops: the generic op name keys lanemath's kernel table.
        return _require_vec(args[0], name).bulk_binary(
            _require_vec(args[1], name), spec.op
        )
    if spec.kind == "pure_unary":
        return _require_vec(args[0], name).bulk_unary(spec.op)
    if spec.kind == "pure_vector":
        return spec.fn(*[_require_vec(arg, name) for arg in args])
    if spec.kind == "pure_imm":
        return spec.fn(_require_vec(args[0], name),
                       _require_scalar(args[1], name))
    if spec.kind == "pure_imm2":
        return spec.fn(_require_vec(args[0], name),
                       _require_vec(args[1], name),
                       _require_scalar(args[2], name))
    if spec.kind == "set1":
        return VecValue.splat(_require_scalar(args[0], name), spec.lanes,
                              dtype=spec.lane_type)
    if spec.kind == "setzero":
        return VecValue.zero(spec.lanes, dtype=spec.lane_type)
    if spec.kind == "setr":
        return VecValue.from_lanes([_require_scalar(a, name) for a in args],
                                   dtype=spec.lane_type)
    if spec.kind == "set":
        return VecValue.from_lanes(
            [_require_scalar(a, name) for a in reversed(args)],
            dtype=spec.lane_type)
    raise ValueError(f"intrinsic {name} is not pure; the interpreter must handle it")
