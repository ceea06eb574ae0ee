"""Property tests: numpy bulk lane kernels vs the pure-Python reference.

:mod:`repro.intrinsics.lanemath` evaluates whole registers with numpy;
:mod:`repro.intrinsics.purelanes` is its deliberately independent per-lane
oracle.  These tests drive both with randomized inputs over the full
(dtype x target width) grid — every registered target including the
simulated-VL SVE targets, at every supported lane element type — and
require bit-identical lanes and poison flags, wraparound included.
"""

import random

import pytest

from repro.intrinsics import lanemath, purelanes
from repro.lanetypes import ALL_LANE_TYPES, INT64
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


def _flags(rng: random.Random, width: int) -> tuple[bool, ...]:
    # Bias toward all-False: the no-poison fast paths must agree too.
    if rng.random() < 0.5:
        return (False,) * width
    return tuple(rng.random() < 0.25 for _ in range(width))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", purelanes.BINARY_OPS)
def test_binary_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"binary:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pa, pb = _flags(rng, width), _flags(rng, width)
        assert (lanemath.binary_lanes(op, a, b, pa, pb, dtype)
                == purelanes.binary_lanes(op, a, b, pa, pb, bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", purelanes.UNARY_OPS)
def test_unary_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"unary:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, pa = _lanes(rng, width, dtype), _flags(rng, width)
        assert (lanemath.unary_lanes(op, a, pa, dtype)
                == purelanes.unary_lanes(op, a, pa, bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", purelanes.SHIFT_OPS)
def test_shift_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"shift:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, pa = _lanes(rng, width, dtype), _flags(rng, width)
        # Counts at and beyond the lane width exercise the defined
        # over-shift paths at every dtype, not just 32-bit.
        count = rng.choice((0, 1, dtype.bits // 2, dtype.bits - 1,
                            dtype.bits, dtype.bits + 8, 255))
        assert (lanemath.shift_lanes(op, a, count, pa, dtype)
                == purelanes.shift_lanes(op, a, count, pa, bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("srl", "sll"))
def test_overshift_zeroes_per_dtype(target_name, width, dtype, op):
    """srl/sll with count >= lane bits produce 0 lanes — at the *dtype's*
    bit count, so a 16-lane shifted by 16 zeroes while 32/64 don't yet."""
    rng = _rng(f"overshift:{op}:{target_name}", width, dtype)
    a = _lanes(rng, width, dtype)
    pa = (False,) * width
    for count in (dtype.bits, dtype.bits + 1, 255):
        lanes, poison = lanemath.shift_lanes(op, a, count, pa, dtype)
        assert lanes == (0,) * width
        assert (lanes, poison) == purelanes.shift_lanes(op, a, count, pa,
                                                        bits=dtype.bits)
    # One below the width still shifts (nonzero for at least some input).
    lanes, _ = lanemath.shift_lanes(op, (1,) * width if op == "sll"
                                    else (-1,) * width,
                                    dtype.bits - 1, pa, dtype)
    assert lanes != (0,) * width


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_select_lanes_match(target_name, width, dtype):
    rng = _rng(f"select:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b, mask = (_lanes(rng, width, dtype) for _ in range(3))
        pa, pb, pm = (_flags(rng, width) for _ in range(3))
        assert (lanemath.select_lanes(a, b, mask, pa, pb, pm, dtype)
                == purelanes.select_lanes(a, b, mask, pa, pb, pm,
                                          bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_select_lanes_full_lane_masks(target_name, width, dtype):
    """The 0 / -1 masks TSVC vectorizations actually build."""
    rng = _rng(f"select-full:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        mask = tuple(rng.choice((0, -1)) for _ in range(width))
        pa, pb, pm = (_flags(rng, width) for _ in range(3))
        lanes, poison = lanemath.select_lanes(a, b, mask, pa, pb, pm, dtype)
        assert (lanes, poison) == purelanes.select_lanes(a, b, mask,
                                                         pa, pb, pm,
                                                         bits=dtype.bits)
        assert lanes == tuple(
            y if m else x for x, y, m in zip(a, b, mask))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_pred_not_lanes_match(target_name, width, dtype):
    rng = _rng(f"pred-not:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov, p = _flags(rng, width), _flags(rng, width)
        pg, pp = _flags(rng, width), _flags(rng, width)
        assert (lanemath.pred_not_lanes(gov, p, pg, pp)
                == purelanes.pred_not_lanes(gov, p, pg, pp))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("and", "or"))
def test_pred_logic_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-logic:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov, a, b = (_flags(rng, width) for _ in range(3))
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        assert (lanemath.pred_logic_lanes(op, gov, a, b, pg, pa, pb)
                == purelanes.pred_logic_lanes(op, gov, a, b, pg, pa, pb))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("cmpgt", "cmpeq"))
def test_pred_cmp_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-cmp:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        gov = _flags(rng, width)
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        assert (lanemath.pred_cmp_lanes(op, gov, a, b, pg, pa, pb, dtype)
                == purelanes.pred_cmp_lanes(op, gov, a, b, pg, pa, pb,
                                            bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_psel_lanes_match(target_name, width, dtype):
    rng = _rng(f"psel:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        pred = _flags(rng, width)
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        assert (lanemath.psel_lanes(pred, a, b, pg, pa, pb, dtype)
                == purelanes.psel_lanes(pred, a, b, pg, pa, pb,
                                        bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
@pytest.mark.parametrize("op", ("add", "sub", "mul", "max", "min"))
def test_pred_merge_lanes_match(target_name, width, dtype, op):
    rng = _rng(f"pred-merge:{op}:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        pred = _flags(rng, width)
        a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
        pg, pa, pb = (_flags(rng, width) for _ in range(3))
        assert (lanemath.pred_merge_lanes(op, pred, a, b, pg, pa, pb, dtype)
                == purelanes.pred_merge_lanes(op, pred, a, b, pg, pa, pb,
                                              bits=dtype.bits))


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_or_flags_matches_reference(target_name, width, dtype):
    rng = _rng(f"or-flags:{target_name}", width, dtype)
    for _ in range(ROUNDS):
        sets = [_flags(rng, width) for _ in range(rng.randint(1, 4))]
        assert lanemath.or_flags(*sets) == purelanes.or_flags(*sets)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_results_are_plain_python_tuples(target_name, width, dtype):
    """Bulk kernels must hand back plain ints/bools — numpy scalars would
    leak into checksums and SMT term construction."""
    rng = _rng(f"types:{target_name}", width, dtype)
    a, b = _lanes(rng, width, dtype), _lanes(rng, width, dtype)
    pa, pb = _flags(rng, width), _flags(rng, width)
    lanes, poison = lanemath.binary_lanes("add", a, b, pa, pb, dtype)
    assert all(type(v) is int for v in lanes)
    assert all(type(f) is bool for f in poison)
    flags, fp = lanemath.pred_cmp_lanes("cmpgt", (True,) * width, a, b,
                                        pa, pb, pb, dtype)
    assert all(type(f) is bool for f in flags)
    assert all(type(f) is bool for f in fp)


@pytest.mark.parametrize("target_name,width,dtype", GRID)
def test_mul_wraparound_agrees(target_name, width, dtype):
    """Squaring the most negative value wraps identically in both backends
    at every (dtype, width) — the classic truncation tell."""
    most_negative = -dtype.sign_bit
    a = (most_negative,) * width
    pa = (False,) * width
    numpy_result = lanemath.binary_lanes("mul", a, a, pa, pa, dtype)
    pure_result = purelanes.binary_lanes("mul", a, a, pa, pa, bits=dtype.bits)
    assert numpy_result == pure_result
    assert numpy_result[0] == (0,) * width  # (-2^(b-1))^2 mod 2^b == 0


def test_int64_products_exceed_32_bits():
    """An int64 multiply whose true product needs >32 bits must come back
    exact — if any layer wrapped at 32 bits this would be 0."""
    width = 4
    a = ((1 << 31),) * width
    pa = (False,) * width
    lanes, _ = lanemath.binary_lanes("mul", a, (2,) * width, pa, pa, INT64)
    assert lanes == ((1 << 32),) * width
    assert purelanes.binary_lanes("mul", a, (2,) * width, pa, pa,
                                  bits=64)[0] == lanes
