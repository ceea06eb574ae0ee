"""Property tests: the one lane evaluator against the verifier's lane terms.

:mod:`repro.intrinsics.lanemath` is the concrete evaluator that checksum
testing runs; the per-lane term functions of :mod:`repro.alive.symexec` are
the semantics the verifier proves against.  These tests drive both with
randomized lanes over the full (dtype x target width) grid — every
registered target including the simulated-VL SVE targets, at every
supported lane element type — and require, lane by lane:

* every lane the terms define evaluates (``smt.terms.evaluate``) to the
  evaluator's lane, wraparound included;
* every lane the evaluator marks poison is poison in the terms too (the
  verifier may be more cautious, never less), unless the term is a
  constant, which reads no operand (an over-shift is 0 whatever it
  shifts).

``tests/test_neon.py`` checks the same agreement end to end, through the
interpreter and the symbolic executor, for every spelling a target emits.
"""

import random

import pytest

from repro.alive.symexec import (
    lane_binary_term,
    lane_unary_term,
    pred_cmp_term,
    pred_logic_term,
    pred_merge_term,
    pred_not_term,
    psel_term,
    select_lane_term,
    shift_lane_term,
)
from repro.intrinsics import lanemath
from repro.lanetypes import ALL_LANE_TYPES, INT64
from repro.smt.terms import (TermKind, bv_const, bv_var, evaluate, mk,
                             modeled_bits, poison, to_signed)
from repro.targets import ALL_TARGETS

#: The full dtype axis crossed with every registered target's lane count
#: for that dtype (sve128 int64 runs 2 lanes, avx512 int16 runs 32).
GRID = [
    pytest.param(t.name, t.lanes_for(dtype), dtype,
                 id=f"{t.name}-{dtype.name}")
    for t in ALL_TARGETS
    for dtype in ALL_LANE_TYPES
    if t.supports_dtype(dtype)
]

ROUNDS = 15


def _edge_values(dtype):
    """Wraparound and byte-select edge cases for one element width."""
    top = dtype.sign_bit
    return (-top, top - 1, -1, 0, 1, top // 2, -(top // 2),
            dtype.wrap(0x7F80FF01), dtype.wrap(-0x7F80FF01))


def _rng(name: str, width: int, dtype) -> random.Random:
    return random.Random(f"{name}:{width}:{dtype.name}")


def _lanes(rng: random.Random, width: int, dtype) -> tuple[int, ...]:
    edges = _edge_values(dtype)
    top = dtype.sign_bit
    return tuple(
        rng.choice(edges) if rng.random() < 0.3
        else rng.randint(-top, top - 1)
        for _ in range(width)
    )


def _pair(rng: random.Random, width: int, dtype):
    """Two registers equal in about a quarter of their lanes, so that
    equality comparisons come out true as well as false."""
    a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
    return a, tuple(x if rng.random() < 0.25 else y for x, y in zip(a, b))


def _flags(rng: random.Random, width: int) -> tuple[bool, ...]:
    # Bias toward all-False: the no-poison fast paths must agree too.
    if rng.random() < 0.5:
        return (False,) * width
    return tuple(rng.random() < 0.25 for _ in range(width))


def _operand(name, values, flags):
    """One register operand as lane terms plus the variables' values.

    Each lane is the variable ``<name>_<lane>``, or a poison term where
    flagged; predicate lanes take the values 0/1.
    """
    terms = [poison(name) if flag else bv_var(f"{name}_{lane}")
             for lane, flag in enumerate(flags)]
    values = {f"{name}_{lane}": int(value) for lane, value in enumerate(values)}
    return terms, values


def _assert_agrees(dtype, result, terms, assignment):
    """``result`` is the evaluator's (lanes, poison) for one register."""
    lanes, flags = result
    assert len(lanes) == len(flags) == len(terms)
    for lane, flag, term in zip(lanes, flags, terms):
        if term.kind is TermKind.POISON:
            continue
        if term.kind is not TermKind.CONST:
            assert not flag, f"poison lane is defined in the verifier: {term}"
        value = to_signed(evaluate(term, assignment, dtype.bits), dtype.bits)
        assert int(lane) == value


def _lane_terms(dtype, build, *operands):
    """Zip ``operands`` (lists of lane terms) through a per-lane function at
    the dtype's modeled width."""
    with modeled_bits(dtype.bits):
        return [build(*lane) for lane in zip(*operands)]


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", lanemath.BINARY_OPS)
def test_binary_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"binary:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b = _pair(rng, width, dtype)
        pa, pb = _flags(rng, width), _flags(rng, width)
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        terms = _lane_terms(dtype, lambda x, y: lane_binary_term(op, x, y),
                            ta, tb)
        _assert_agrees(dtype, lanemath.binary_lanes(op, a, b, pa, pb, dtype),
                       terms, va | vb)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", lanemath.UNARY_OPS)
def test_unary_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"unary:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, pa = _lanes(rng, width, dtype), _flags(rng, width)
        ta, va = _operand("a", a, pa)
        terms = _lane_terms(dtype, lambda x: lane_unary_term(op, x), ta)
        _assert_agrees(dtype, lanemath.unary_lanes(op, a, pa, dtype),
                       terms, va)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", lanemath.SHIFT_OPS)
def test_shift_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"shift:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, pa = _lanes(rng, width, dtype), _flags(rng, width)
        # Counts at and beyond the lane width exercise the defined
        # over-shift paths at every dtype, not just 32-bit.
        count = rng.choice((0, 1, dtype.bits // 2, dtype.bits - 1,
                            dtype.bits, dtype.bits + 8, 255))
        ta, va = _operand("a", a, pa)
        with modeled_bits(dtype.bits):
            terms = [shift_lane_term(op, x, count) for x in ta]
        _assert_agrees(dtype, lanemath.shift_lanes(op, a, count, pa, dtype),
                       terms, va)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("srl", "sll"))
def test_overshift_zeroes_per_dtype(target_name, width, dtype, op):
    """srl/sll with count >= lane bits produce 0 lanes — at the *dtype's*
    bit count, so a 16-lane shifted by 16 zeroes while 32/64 don't yet."""
    rng = _rng(f"overshift:{op}:{target_name}", width, dtype)
    a = _lanes(rng, width, dtype)
    pa = (False,) * width
    for count in (dtype.bits, dtype.bits + 1, 255):
        assert lanemath.shift_lanes(op, a, count, pa, dtype) == ((0,) * width, pa)
    # One below the width still shifts (nonzero for at least some input).
    lanes, _ = lanemath.shift_lanes(op, (1,) * width if op == "sll"
                                    else (-1,) * width,
                                    dtype.bits - 1, pa, dtype)
    assert lanes != (0,) * width


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_select_lanes_match(target_name, width, dtype):
    """Arbitrary masks: the verifier blends byte by byte, like the evaluator."""
    rng = _rng(f"select:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b, mask = (_lanes(rng, width, dtype) for _ in range(3))
        pa, pb, pm = (_flags(rng, width) for _ in range(3))
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        tm, vm = _operand("m", mask, pm)
        terms = _lane_terms(dtype, select_lane_term, ta, tb, tm)
        _assert_agrees(dtype,
                       lanemath.select_lanes(a, b, mask, pa, pb, pm, dtype),
                       terms, va | vb | vm)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_select_lanes_full_lane_masks(target_name, width, dtype):
    """The 0 / -1 masks TSVC vectorizations actually build: the verifier
    keeps its whole-lane ``ite`` for a comparison's mask."""
    rng = _rng(f"select-full:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        mask = tuple(rng.choice((0, -1)) for _ in range(width))
        pa, pb, pm = (_flags(rng, width) for _ in range(3))
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        tm, vm = _operand("m", mask, pm)
        # A comparison's mask: -1 exactly where m is.
        compared = _lane_terms(
            dtype, lambda m: lane_binary_term("cmpeq", m, bv_const(-1)), tm)
        terms = _lane_terms(dtype, select_lane_term, ta, tb, compared)
        assert all(t.kind in (TermKind.ITE, TermKind.POISON) for t in terms)
        lanes, poison_flags = lanemath.select_lanes(a, b, mask, pa, pb, pm,
                                                    dtype)
        _assert_agrees(dtype, (lanes, poison_flags), terms, va | vb | vm)
        assert lanes == tuple(
            y if m else x for x, y, m in zip(a, b, mask))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_pred_not_lanes_match(target_name, width, dtype):
    rng = _rng(f"pred-not:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov, p = _flags(rng, width), _flags(rng, width)
        pg, pp = _flags(rng, width), _flags(rng, width)
        tg, vg = _operand("g", gov, pg)
        tp, vp = _operand("p", p, pp)
        terms = _lane_terms(dtype, pred_not_term, tg, tp)
        _assert_agrees(dtype, lanemath.pred_not_lanes(gov, p, pg, pp),
                       terms, vg | vp)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("and", "or"))
def test_pred_logic_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-logic:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov, a, b = (_flags(rng, width) for _ in range(3))
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        tg, vg = _operand("g", gov, pg)
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        terms = _lane_terms(dtype, lambda g, x, y: pred_logic_term(op, g, x, y),
                            tg, ta, tb)
        _assert_agrees(dtype,
                       lanemath.pred_logic_lanes(op, gov, a, b, pg, pa, pb),
                       terms, vg | va | vb)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("cmpgt", "cmpeq"))
def test_pred_cmp_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-cmp:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov = _flags(rng, width)
        a, b = _pair(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        tg, vg = _operand("g", gov, pg)
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        terms = _lane_terms(dtype, lambda g, x, y: pred_cmp_term(op, g, x, y),
                            tg, ta, tb)
        _assert_agrees(dtype,
                       lanemath.pred_cmp_lanes(op, gov, a, b, pg, pa, pb, dtype),
                       terms, vg | va | vb)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_psel_lanes_match(target_name, width, dtype):
    rng = _rng(f"psel:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        pred = _flags(rng, width)
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        tg, vg = _operand("g", pred, pg)
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        terms = _lane_terms(dtype, psel_term, tg, ta, tb)
        _assert_agrees(dtype,
                       lanemath.psel_lanes(pred, a, b, pg, pa, pb, dtype),
                       terms, vg | va | vb)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("add", "sub", "mul", "max", "min"))
def test_pred_merge_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-merge:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        pred = _flags(rng, width)
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        tg, vg = _operand("g", pred, pg)
        ta, va = _operand("a", a, pa)
        tb, vb = _operand("b", b, pb)
        terms = _lane_terms(dtype,
                            lambda g, x, y: pred_merge_term(op, g, x, y),
                            tg, ta, tb)
        _assert_agrees(dtype,
                       lanemath.pred_merge_lanes(op, pred, a, b,
                                                 pg, pa, pb, dtype),
                       terms, vg | va | vb)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_or_flags_matches_reference(target_name, width, dtype):
    """Poison ORs lane-wise exactly as a term over poison operands does."""
    rng = _rng(f"or-flags:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        sets = [_flags(rng, width) for _ in range(rng.randint(1, 4))]
        operands = [_operand(f"x{k}", (0,) * width, flags)[0]
                    for k, flags in enumerate(sets)]
        with modeled_bits(dtype.bits):
            combined = operands[0]
            for operand in operands[1:]:
                combined = [mk(TermKind.OR, x, y)
                            for x, y in zip(combined, operand)]
        assert lanemath.or_flags(*sets) == tuple(
            term.kind is TermKind.POISON for term in combined)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_results_are_plain_python_tuples(target_name, width, dtype):
    """Kernels hand back plain ints/bools: anything else would leak into
    checksums and SMT term construction."""
    rng = _rng(f"types:{target_name}", width, dtype)
    a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
    pa, pb = _flags(rng, width), _flags(rng, width)
    lanes, poison_flags = lanemath.binary_lanes("add", a, b, pa, pb, dtype)
    assert type(lanes) is tuple and type(poison_flags) is tuple
    assert all(type(v) is int for v in lanes)
    assert all(type(f) is bool for f in poison_flags)
    flags, fp = lanemath.pred_cmp_lanes("cmpgt", (True,) * width, a, b,
                                        pa, pb, pb, dtype)
    assert all(type(f) is bool for f in flags)
    assert all(type(f) is bool for f in fp)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_mul_wraparound_agrees(target_name, width, dtype):
    """Squaring the most negative value wraps to 0 in the evaluator and in
    the verifier's terms at every (dtype, width) — the classic truncation
    tell."""
    most_negative = -dtype.sign_bit
    a = (most_negative,) * width
    pa = (False,) * width
    result = lanemath.binary_lanes("mul", a, a, pa, pa, dtype)
    assert result[0] == (0,) * width  # (-2^(b-1))^2 mod 2^b == 0
    ta, va = _operand("a", a, pa)
    terms = _lane_terms(dtype, lambda x: lane_binary_term("mul", x, x), ta)
    _assert_agrees(dtype, result, terms, va)


def test_int64_products_exceed_32_bits():
    """An int64 multiply whose true product needs >32 bits must come back
    exact — if any layer wrapped at 32 bits this would be 0."""
    width = 4
    a = ((1 << 31),) * width
    pa = (False,) * width
    lanes, _ = lanemath.binary_lanes("mul", a, (2,) * width, pa, pa, INT64)
    assert lanes == ((1 << 32),) * width
    ta, va = _operand("a", a, pa)
    terms = _lane_terms(INT64,
                        lambda x: lane_binary_term("mul", x, bv_const(2)), ta)
    _assert_agrees(INT64, (lanes, pa), terms, va)
