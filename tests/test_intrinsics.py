"""Tests for the SIMD intrinsic semantic models, across every target width.

Every lane-semantics test runs at 4, 8 and 16 lanes (SSE4 / AVX2 / AVX-512)
through each target's own intrinsic spelling, including poison propagation
through masked loads and the blend/shift edge cases.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cfront.cparser import parse_function
from repro.interp.interpreter import run_function
from repro.intrinsics import (
    INTRINSIC_REGISTRY,
    PredValue,
    VecValue,
    apply_pure_intrinsic,
    is_intrinsic,
    lookup_intrinsic,
    registry_for,
)
from repro.lanetypes import INT32
from repro.targets import ALL_TARGETS, AVX2, get_target


@pytest.fixture(params=[t.name for t in ALL_TARGETS])
def isa(request):
    return get_target(request.param)


def _vec(isa, values):
    assert len(values) == isa.lanes
    return VecValue.from_lanes(values)


def _pattern(isa, period=4):
    """A deterministic per-width lane pattern mixing signs and magnitudes."""
    base = [5, -1, 3, 0, 7, 2, -9, 11, -4, 6, 0, -7, 13, 1, -2, 8]
    return base[: isa.lanes]


class TestWrap32:
    def test_wraps_positive_overflow(self):
        assert INT32.wrap(2**31) == -(2**31)

    def test_wraps_negative(self):
        assert INT32.wrap(-(2**31) - 1) == 2**31 - 1

    def test_identity_in_range(self):
        assert INT32.wrap(12345) == 12345
        assert INT32.wrap(-12345) == -12345


class TestVecValue:
    def test_splat_and_zero_at_every_width(self, isa):
        assert VecValue.splat(7, isa.lanes).lanes == (7,) * isa.lanes
        assert VecValue.zero(isa.lanes).lanes == (0,) * isa.lanes

    def test_rejects_unregistered_widths(self):
        with pytest.raises(ValueError):
            VecValue(lanes=(1, 2, 3))
        with pytest.raises(ValueError):
            VecValue(lanes=(0,) * 32)

    def test_poison_propagates_through_binary_ops(self, isa):
        width = isa.lanes
        a = VecValue.from_lanes(range(width), poison=[True] + [False] * (width - 1))
        b = VecValue.splat(1, width)
        result = a.bulk_binary(b, "add")
        assert result.poison[0] is True
        assert result.poison[1] is False

    def test_width_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            VecValue.zero(4).bulk_binary(VecValue.zero(8), "add")

    def test_avx2_register_values_are_plain_vecvalues(self):
        # The historical M256Value shim is gone: an AVX2 register is just a
        # width-8 VecValue, and the AVX2 target's lane count agrees.
        assert AVX2.lanes == 8
        assert VecValue.splat(7, AVX2.lanes).lanes == (7,) * 8
        assert VecValue.zero(AVX2.lanes).lanes == (0,) * 8
        import repro.intrinsics.values as values_module
        assert not hasattr(values_module, "M256Value")


class TestPureIntrinsics:
    def test_add_epi32(self, isa):
        a = _vec(isa, list(range(isa.lanes)))
        b = VecValue.splat(10, isa.lanes)
        out = apply_pure_intrinsic(isa.intrinsic("add"), [a, b])
        assert out.lanes == tuple(i + 10 for i in range(isa.lanes))

    def test_mullo_epi32_wraps(self, isa):
        a = VecValue.splat(2**20, isa.lanes)
        b = VecValue.splat(2**20, isa.lanes)
        out = apply_pure_intrinsic(isa.intrinsic("mul"), [a, b])
        assert out.lanes == (INT32.wrap(2**40),) * isa.lanes

    def test_cmpgt_produces_full_lane_masks(self, isa):
        a = _vec(isa, _pattern(isa))
        b = VecValue.splat(2, isa.lanes)
        if isa.has_predicates:
            # Predicate-first targets compare into a predicate register.
            gov = PredValue.all_true(isa.lanes)
            out = apply_pure_intrinsic(isa.intrinsic("pcmpgt"), [gov, a, b])
            assert out.lanes == tuple(v > 2 for v in _pattern(isa))
            return
        out = apply_pure_intrinsic(isa.intrinsic("cmpgt"), [a, b])
        assert out.lanes == tuple(-1 if v > 2 else 0 for v in _pattern(isa))

    def test_blendv_selects_by_mask_sign(self, isa):
        a = VecValue.splat(1, isa.lanes)
        b = VecValue.splat(2, isa.lanes)
        if isa.has_predicates:
            # Same blend, predicate-selected: active lanes take the 'then'
            # operand (ACLE svsel operand order).
            pred = PredValue.from_lanes([i % 2 == 0 for i in range(isa.lanes)])
            out = apply_pure_intrinsic(isa.intrinsic("psel"), [pred, b, a])
            assert out.lanes == tuple(2 if i % 2 == 0 else 1
                                      for i in range(isa.lanes))
            return
        mask = _vec(isa, [-1 if i % 2 == 0 else 0 for i in range(isa.lanes)])
        out = apply_pure_intrinsic(isa.intrinsic("select"), [a, b, mask])
        assert out.lanes == tuple(2 if i % 2 == 0 else 1 for i in range(isa.lanes))

    def test_blendv_is_byte_granular(self, isa):
        """A mask with only the top byte's sign bit set blends only that byte."""
        if not isa.supports("select"):
            pytest.skip(f"{isa.display_name} blends through lane-granular "
                        "predicates; there is no byte-granular mask view")
        a = VecValue.splat(0, isa.lanes)
        b = VecValue.splat(-1, isa.lanes)
        mask = VecValue.splat(INT32.wrap(0x80000000), isa.lanes)
        out = apply_pure_intrinsic(isa.intrinsic("select"), [a, b, mask])
        assert out.lanes == (INT32.wrap(0xFF000000),) * isa.lanes

    def test_blendv_propagates_mask_and_selected_poison(self, isa):
        width = isa.lanes
        a = VecValue.from_lanes([1] * width, poison=[True] + [False] * (width - 1))
        b = VecValue.splat(2, width)
        if isa.has_predicates:
            pred = PredValue.from_lanes([False] * width,
                                        poison=[False] * (width - 1) + [True])
            out = apply_pure_intrinsic(isa.intrinsic("psel"), [pred, b, a])
            assert out.poison[0] is True      # selected lane was poison
            assert out.poison[-1] is True     # poison predicate poisons the lane
            assert not any(out.poison[1:-1])
            return
        mask = VecValue.from_lanes([0] * width,
                                   poison=[False] * (width - 1) + [True])
        out = apply_pure_intrinsic(isa.intrinsic("select"), [a, b, mask])
        assert out.poison[0] is True          # selected lane was poison
        assert out.poison[-1] is True         # poison mask poisons the lane
        assert not any(out.poison[1:-1])

    def test_setr_orders_arguments_low_to_high(self, isa):
        if not isa.supports("setr"):
            # SVE builds ramps with svindex(base, step) instead.
            out = apply_pure_intrinsic(isa.intrinsic("index"), [0, 1])
            assert out.lanes == tuple(range(isa.lanes))
            return
        out = apply_pure_intrinsic(isa.intrinsic("setr"), list(range(isa.lanes)))
        assert out.lanes == tuple(range(isa.lanes))

    def test_set_orders_arguments_high_to_low(self, isa):
        if not isa.supports("set"):
            pytest.skip(f"{isa.display_name} has no whole-register set constructor")
        out = apply_pure_intrinsic(isa.intrinsic("set"), list(range(isa.lanes)))
        assert out.lanes == tuple(reversed(range(isa.lanes)))

    def test_abs_and_minmax(self, isa):
        values = _pattern(isa)
        a = _vec(isa, values)
        b = VecValue.splat(0, isa.lanes)
        assert apply_pure_intrinsic(isa.intrinsic("abs"), [a]).lanes == tuple(
            abs(v) for v in values
        )
        assert apply_pure_intrinsic(isa.intrinsic("max"), [a, b]).lanes == tuple(
            max(v, 0) for v in values
        )
        assert apply_pure_intrinsic(isa.intrinsic("min"), [a, b]).lanes == tuple(
            min(v, 0) for v in values
        )

    def test_shift_intrinsics(self, isa):
        a = VecValue.splat(8, isa.lanes)
        assert apply_pure_intrinsic(isa.intrinsic("sll"), [a, 2]).lanes == (32,) * isa.lanes
        assert apply_pure_intrinsic(isa.intrinsic("srl"), [a, 2]).lanes == (2,) * isa.lanes
        negative = VecValue.splat(-8, isa.lanes)
        assert apply_pure_intrinsic(isa.intrinsic("sra"), [negative, 2]).lanes == (-2,) * isa.lanes

    def test_shift_edge_counts(self, isa):
        """Counts at and past the lane width: logical shifts zero, srai saturates."""
        width = isa.lanes
        a = VecValue.from_lanes([-8] * width, poison=[True] + [False] * (width - 1))
        for count in (32, 33, 100):
            out = apply_pure_intrinsic(isa.intrinsic("sll"), [a, count])
            assert out.lanes == (0,) * width
            assert out.poison[0] is True      # poison survives the zeroing
            out = apply_pure_intrinsic(isa.intrinsic("srl"), [a, count])
            assert out.lanes == (0,) * width
            out = apply_pure_intrinsic(isa.intrinsic("sra"), [a, count])
            assert out.lanes == (-1,) * width  # sign fill saturates
            assert out.poison[0] is True
        # shift by 31: sign bit lands in the low bit for srli
        b = VecValue.splat(-1, isa.lanes)
        assert apply_pure_intrinsic(isa.intrinsic("srl"), [b, 31]).lanes == (1,) * width

    def test_shuffle_works_per_128bit_block(self, isa):
        if not isa.supports("shuffle"):
            pytest.skip(f"{isa.display_name} has no shuffle-by-immediate")
        a = _vec(isa, list(range(isa.lanes)))
        out = apply_pure_intrinsic(isa.intrinsic("shuffle"), [a, 0b00_01_10_11])
        expected = []
        for block in range(isa.lanes // 4):
            base = block * 4
            expected += [base + 3, base + 2, base + 1, base + 0]
        assert out.lanes == tuple(expected)

    def test_hadd_pairwise_within_blocks(self, isa):
        if not isa.supports("hadd"):
            pytest.skip(f"{isa.display_name} has no hadd")
        a = _vec(isa, list(range(1, isa.lanes + 1)))
        b = _vec(isa, [10 * v for v in range(1, isa.lanes + 1)])
        out = apply_pure_intrinsic(isa.intrinsic("hadd"), [a, b])
        expected = []
        for block in range(isa.lanes // 4):
            base = block * 4
            expected += [
                (base + 1) + (base + 2), (base + 3) + (base + 4),
                10 * (base + 1) + 10 * (base + 2), 10 * (base + 3) + 10 * (base + 4),
            ]
        assert out.lanes == tuple(expected)


class TestMaskedLoadPoison:
    """Poison must flow through masked loads exactly where the mask is on."""

    def _masked_load_source(self, isa, start: int) -> str:
        if not isa.has_masked_memory:
            pytest.skip(f"{isa.display_name} has no masked memory operations "
                        "(select-based masking is covered in test_neon.py)")
        vt = isa.vector_type
        mask_args = ", ".join("-1" if i % 2 == 0 else "0" for i in range(isa.lanes))
        return f"""
void kernel(int * a, int * out, int n)
{{
    {vt} mask = {isa.intrinsic("setr")}({mask_args});
    {vt} v = {isa.intrinsic("maskload")}(&a[{start}], mask);
    {isa.intrinsic("storeu")}(({vt}*)&out[0], v);
}}
"""

    def test_in_bounds_masked_load_has_no_ub(self, isa):
        size = isa.lanes * 2
        func = parse_function(self._masked_load_source(isa, 0))
        result = run_function(func, {"a": list(range(1, size + 1)), "out": [0] * isa.lanes},
                              {"n": size})
        assert not result.has_ub
        out = result.outputs()["out"]
        assert out == [i + 1 if i % 2 == 0 else 0 for i in range(isa.lanes)]

    def test_oob_lanes_become_poison_only_where_mask_is_on(self, isa):
        size = isa.lanes * 2
        start = size - 2  # lanes 0..1 in bounds, the rest in the guard zone
        func = parse_function(self._masked_load_source(isa, start))
        result = run_function(func, {"a": list(range(1, size + 1)), "out": [0] * isa.lanes},
                              {"n": size})
        oob_reads = [e for e in result.ub_events if e.kind == "oob-read"]
        poison_stores = [e for e in result.ub_events if e.kind == "poison-store"]
        # Mask-on lanes past the end: even lane indices >= 2.
        expected_oob = [start + i for i in range(2, isa.lanes, 2)]
        assert [e.index for e in oob_reads] == expected_oob
        # Every poison lane that reaches the store is observable UB.
        assert [e.index for e in poison_stores] == list(range(2, isa.lanes, 2))
        # Masked-off lanes stayed zero and clean.
        out = result.outputs()["out"]
        assert all(out[i] == 0 for i in range(1, isa.lanes, 2))


class TestMaskSignAgreement:
    """Interpreter and symbolic executor must agree that only the mask sign
    bit enables a masked-load lane (a positive mask value is OFF)."""

    def _source(self, isa) -> str:
        if not isa.has_masked_memory:
            pytest.skip(f"{isa.display_name} has no masked memory operations "
                        "(select-based masking is covered in test_neon.py)")
        vt = isa.vector_type
        return f"""
void kernel(int * a, int * out, int n)
{{
    {vt} mask = {isa.intrinsic("set1")}(1);
    {vt} v = {isa.intrinsic("maskload")}(&a[0], mask);
    {isa.intrinsic("storeu")}(({vt}*)&out[0], v);
}}
"""

    def test_positive_mask_disables_every_lane_in_both_executors(self, isa):
        from repro.alive.symexec import execute_symbolically
        from repro.smt.terms import TermKind

        width = isa.lanes
        func = parse_function(self._source(isa))
        concrete = run_function(func, {"a": list(range(1, width + 1)), "out": [0] * width},
                                {"n": width})
        assert concrete.outputs()["out"] == [0] * width

        state = execute_symbolically(func, {"a": width, "out": width}, {"n": width})
        for index in range(width):
            cell = state.regions["out"].cell(index)
            assert cell.kind is TermKind.CONST and cell.value == 0


class TestRegistry:
    def test_paper_intrinsics_are_modelled(self):
        for name in ("_mm256_loadu_si256", "_mm256_storeu_si256", "_mm256_set1_epi32",
                     "_mm256_setr_epi32", "_mm256_add_epi32", "_mm256_mullo_epi32",
                     "_mm256_cmpgt_epi32", "_mm256_blendv_epi8", "_mm256_setzero_si256"):
            assert is_intrinsic(name)

    def test_every_target_registry_is_complete(self, isa):
        registry = registry_for(isa)
        core = ("add", "sub", "mul", "set1", "extract")
        if isa.has_predicates:
            # Predicate-first targets: compares, selects and *all* memory
            # are predicate-governed; ramps come from index.
            flavour = ("pcmpgt", "psel", "pload", "pstore", "index",
                       "whilelt", "ptest_any")
        else:
            flavour = ("cmpgt", "select", "loadu", "storeu", "setr")
        for op in core + flavour:
            name = isa.intrinsic(op)
            assert name in registry
            spec = registry[name]
            assert spec.lanes == isa.lanes
            assert spec.op == op
            assert spec.target == isa.name

    def test_per_op_availability_differs_across_targets(self):
        sse4, avx2, avx512 = (get_target(n) for n in ("sse4", "avx2", "avx512"))
        assert avx2.supports("permute_halves")
        assert not sse4.supports("permute_halves")
        assert not avx512.supports("permute_halves")
        assert sse4.supports("hadd") and avx2.supports("hadd")
        assert not avx512.supports("hadd")
        assert avx512.has_native_masked_ops
        assert avx512.intrinsic("select") == "_mm512_mask_blend_epi32"

    def test_unknown_intrinsic_lookup_raises(self):
        with pytest.raises(KeyError):
            lookup_intrinsic("_mm256_not_a_real_intrinsic")

    def test_costs_are_positive_for_memory_ops(self, isa):
        store = "storeu" if isa.supports("storeu") else "pstore"
        assert lookup_intrinsic(isa.intrinsic(isa.plain_load_op)).cycle_cost > 0
        assert lookup_intrinsic(isa.intrinsic(store)).cycle_cost > 0

    def test_every_registered_intrinsic_has_consistent_spec(self):
        for name, spec in INTRINSIC_REGISTRY.items():
            assert spec.name == name
            assert spec.arity >= 0
            assert spec.cycle_cost >= 0
            assert spec.lanes in (4, 8, 16)


class TestOneLaneEvaluator:
    """Regrowth guard: the lane arithmetic runs in plain Python, in
    :mod:`repro.intrinsics.lanemath` alone, and pulls in no numpy."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_no_module_imports_numpy(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    offenders.append(f"{path.relative_to(self.SRC)}:{node.lineno}")
        assert offenders == []

    def test_campaign_import_leaves_numpy_unloaded(self):
        probe = ("import sys, repro.pipeline.campaign; "
                 "print('numpy' in sys.modules)")
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(self.SRC.parent)})
        assert completed.stdout.strip() == "False"
