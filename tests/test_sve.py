"""ARM SVE backend: predicate-first execution and the predicated-loop epilogue.

Covers the PR-5 acceptance surface:

* predicates (``svbool_t``) as first-class values next to vectors in the
  interpreter and the symbolic executor (``PredValue`` / ``SymPred``),
  including poison propagation through predicate-producing compares;
* predicate-governed memory semantics, and the boundary property that makes
  predicated tails *sound* where NEON's select-legalization was not: an
  inactive lane at the region boundary never touches memory and records no
  UB, concretely and symbolically;
* the third epilogue strategy, ``epilogue="predicated"``: a ``whilelt``-governed
  loop with a ``ptest`` exit replaces the vector loop, the scalar epilogue
  and the masked tail — the verifier proves it at unaligned trip counts;
* simulated vector lengths: the same kernel vectorizes at VL128 and VL256
  through identical code paths with identical campaign verdicts;
* planner legality: the strategy is rejected with a gap message on
  non-predicate targets, masked tails are redirected on SVE, shapes are
  restricted exactly like the masked tail's;
* predicate-aware faults respelled through the owning ISA, the cost model
  pricing predicate ops, and — the regression floor for everything above —
  AVX2 campaign verdicts bit-for-bit unchanged from the PR 2 snapshot.
"""

import random

import pytest

from repro.alive.symexec import SymbolicExecutionError, execute_symbolically
from repro.alive.verifier import AliveVerifier
from repro.cfront.cparser import parse_function
from repro.cfront.ctypes import CType
from repro.errors import CompileError
from repro.interp.interpreter import run_function
from repro.intrinsics import PredValue, apply_pure_intrinsic, registry_for
from repro.llm.faults import FaultKind, applicable_faults, apply_fault
from repro.targets import ALL_TARGETS, NEON, SVE128, SVE256, get_target
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel
from repro.vectorizer.planner import RejectionReason, plan_vectorization
from repro.verdict import Verdict

SVE_TARGETS = [SVE128, SVE256]
SVE_NAMES = [t.name for t in SVE_TARGETS]


def _unaligned_run(kernel, source, n):
    """Run scalar and candidate at trip count ``n``; return both results."""
    pointer_params = [p.name for p in kernel.function.params
                     if p.param_type.is_pointer]
    arrays = {name: [(3 * i + 7) % 11 - 5 for i in range(n)]
              for name in pointer_params}
    scalar = run_function(kernel.function,
                          {k: list(v) for k, v in arrays.items()}, {"n": n})
    vector = run_function(parse_function(source),
                          {k: list(v) for k, v in arrays.items()}, {"n": n})
    return scalar, vector


# ---------------------------------------------------------------------------
# the target descriptions: scalable types, predicate registers, two VLs
# ---------------------------------------------------------------------------


class TestSveTargets:
    def test_sve_alias_and_simulated_vls(self):
        assert get_target("sve") is SVE256
        assert get_target("sve128") is SVE128
        assert get_target("SVE-256") is SVE256
        assert SVE128.lanes == 4 and SVE256.lanes == 8
        assert SVE128.scalable and SVE256.scalable

    def test_predicate_first_capability_flags(self):
        for isa in SVE_TARGETS:
            assert isa.has_predicates
            assert isa.has_predicated_loops
            assert isa.predicate_type == "svbool_t"
            assert not isa.has_masked_memory     # predicate != masked-memory
            assert not isa.supports("loadu")     # no unpredicated memory
            assert not isa.supports("storeu")
            assert not isa.supports("select")    # compares produce predicates
            assert not isa.supports("cmpgt")
        for isa in ALL_TARGETS:
            if isa not in SVE_TARGETS:
                assert not isa.has_predicates
                assert not isa.has_predicated_loops

    def test_both_vls_share_the_scalable_types_but_not_spellings(self):
        assert SVE128.vector_type == SVE256.vector_type == "svint32_t"
        assert SVE128.predicate_type == SVE256.predicate_type
        shared = set(SVE128.op_names.values()) & set(SVE256.op_names.values())
        assert not shared  # width travels with the intrinsic name
        assert SVE128.intrinsic("whilelt").endswith("_vl128")
        assert SVE256.intrinsic("whilelt").endswith("_vl256")
        assert SVE128.header == "arm_sve.h"

    def test_predicate_ctype_plumbing(self):
        assert SVE128.predicate_ctype == CType("svbool_t")
        assert CType("svbool_t").is_predicate
        assert not CType("svbool_t").is_vector
        assert CType("svint32_t").is_vector
        assert CType("svint32_t").vector_lanes == 0  # scalable sentinel
        with pytest.raises(ValueError):
            NEON.predicate_ctype


# ---------------------------------------------------------------------------
# predicate values and lane semantics
# ---------------------------------------------------------------------------


class TestPredicateSemantics:
    def test_whilelt_patterns(self):
        assert PredValue.whilelt(0, 3, 4).lanes == (True, True, True, False)
        assert PredValue.whilelt(4, 3, 4).lanes == (False,) * 4
        assert PredValue.whilelt(0, 9, 8).lanes == (True,) * 8
        assert not PredValue.whilelt(8, 8, 8).any_active

    def test_pred_value_rejects_unregistered_widths(self):
        with pytest.raises(ValueError):
            PredValue((True, False, True))

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_pred_logic_is_governed_and_zeroing(self, target):
        isa = get_target(target)
        width = isa.lanes
        gov = apply_pure_intrinsic(isa.intrinsic("whilelt"), [0, width - 1])
        full = apply_pure_intrinsic(isa.intrinsic("ptrue"), [])
        inverted = apply_pure_intrinsic(isa.intrinsic("pnot"), [gov, gov])
        # Zeroing semantics: lanes outside the governing predicate stay false
        # even though the operand was false there too.
        assert inverted.lanes == (False,) * width
        negated_full = apply_pure_intrinsic(isa.intrinsic("pnot"), [gov, full])
        assert negated_full.lanes == (False,) * width
        combined = apply_pure_intrinsic(isa.intrinsic("pand"), [gov, full, full])
        assert combined.lanes == gov.lanes
        either = apply_pure_intrinsic(isa.intrinsic("por"),
                                      [gov, inverted, combined])
        assert either.lanes == gov.lanes

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_pred_cmp_only_looks_at_active_lanes_and_carries_poison(self, target):
        from repro.intrinsics import VecValue

        isa = get_target(target)
        width = isa.lanes
        gov = PredValue.whilelt(0, width - 1, width)
        a = VecValue.from_lanes([5] * width,
                                poison=[True] + [False] * (width - 1))
        b = VecValue.splat(0, width)
        out = apply_pure_intrinsic(isa.intrinsic("pcmpgt"), [gov, a, b])
        # Active lanes compare; the lane outside the governing predicate is
        # false regardless of the data.
        assert out.lanes == (True,) * (width - 1) + (False,)
        # Poison data poisons the predicate bit only where the compare looked.
        assert out.poison[0] is True
        assert not any(out.poison[1:])

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_padd_merges_inactive_lanes_from_the_first_operand(self, target):
        from repro.intrinsics import VecValue

        isa = get_target(target)
        width = isa.lanes
        pred = PredValue.whilelt(0, 2, width)
        a = VecValue.splat(10, width)
        b = VecValue.splat(5, width)
        out = apply_pure_intrinsic(isa.intrinsic("padd"), [pred, a, b])
        assert out.lanes == (15, 15) + (10,) * (width - 2)


# ---------------------------------------------------------------------------
# predicate-governed memory: the boundary soundness NEON could not offer
# ---------------------------------------------------------------------------


class TestPredicatedMemoryBoundary:
    def _tail_source(self, isa, start):
        vt, pt = isa.vector_type, isa.predicate_type
        return f"""
void kernel(int * a, int * out, int n)
{{
    {pt} pg = {isa.intrinsic('whilelt')}({start}, n);
    {vt} v = {isa.intrinsic('pload')}(pg, ({vt}*)&a[{start}]);
    {isa.intrinsic('pstore')}(pg, ({vt}*)&out[{start}], v);
}}
"""

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_inactive_boundary_lanes_never_touch_memory(self, target):
        """The final tail block: lanes past ``n`` are predicate-disabled and
        must record *no* UB — unlike NEON's select legalization, whose full-
        width load made every boundary lane an OOB read."""
        isa = get_target(target)
        size = isa.lanes + 2  # a partial final block of 2 lanes
        start = isa.lanes
        func = parse_function(self._tail_source(isa, start))
        arrays = {"a": list(range(1, size + 1)), "out": [0] * size}
        result = run_function(func, {k: list(v) for k, v in arrays.items()},
                              {"n": size})
        assert not result.has_ub
        assert result.outputs()["out"][start:] == arrays["a"][start:]
        state = execute_symbolically(func, {"a": size, "out": size},
                                     {"n": size})
        assert state.ub_events == []

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_active_oob_lane_still_records_ub(self, target):
        """Soundness cuts both ways: a predicate that *enables* an OOB lane
        is an OOB access like any other."""
        isa = get_target(target)
        size = isa.lanes  # whilelt(1, n+1) walks one lane past the region
        vt, pt = isa.vector_type, isa.predicate_type
        source = f"""
void kernel(int * a, int * out, int n)
{{
    {pt} pg = {isa.intrinsic('whilelt')}(0, n);
    {vt} v = {isa.intrinsic('pload')}(pg, ({vt}*)&a[1]);
    {isa.intrinsic('pstore')}(pg, ({vt}*)&out[0], v);
}}
"""
        func = parse_function(source)
        result = run_function(func, {"a": list(range(size)), "out": [0] * size},
                              {"n": size})
        oob = [e for e in result.ub_events if e.kind == "oob-read"]
        assert [e.index for e in oob] == [size]
        state = execute_symbolically(func, {"a": size, "out": size}, {"n": size})
        assert any("out-of-bounds read" in event for event in state.ub_events)

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_scalable_declarations_require_initializers(self, target):
        isa = get_target(target)
        source = f"""
void kernel(int * a, int n)
{{
    {isa.vector_type} v;
}}
"""
        func = parse_function(source)
        with pytest.raises(CompileError, match="initializer"):
            run_function(func, {"a": [0] * 8}, {"n": 8})
        with pytest.raises(SymbolicExecutionError, match="initializer"):
            execute_symbolically(func, {"a": 8}, {"n": 8})


# ---------------------------------------------------------------------------
# the predicated epilogue strategy
# ---------------------------------------------------------------------------


class TestPredicatedLoop:
    KERNELS = ["s000", "s271", "vif"]

    @pytest.mark.parametrize("target", SVE_NAMES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_predicated_loop_replaces_every_epilogue(self, target, kernel):
        isa = get_target(target)
        loaded = load_kernel(kernel)
        result = vectorize_kernel(loaded.function, isa, epilogue="predicated")
        assert result is not None
        assert result.plan.epilogue == "predicated"
        assert isa.intrinsic("whilelt") in result.source
        assert isa.intrinsic("ptest_any") in result.source
        assert isa.intrinsic("pload") in result.source
        assert isa.intrinsic("pstore") in result.source
        assert "while (" in result.source
        assert "for (" not in result.source  # no vector loop, no epilogue

    @pytest.mark.parametrize("target", SVE_NAMES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_predicated_loop_matches_scalar_at_unaligned_trip_counts(
            self, target, kernel):
        isa = get_target(target)
        loaded = load_kernel(kernel)
        result = vectorize_kernel(loaded.function, isa, epilogue="predicated")
        for n in (isa.lanes + isa.lanes // 2 + 1, 1, isa.lanes - 1):
            scalar, vector = _unaligned_run(loaded, result.source, n)
            assert not vector.has_ub, (kernel, target, n, vector.ub_events)
            assert vector.outputs() == scalar.outputs(), (kernel, target, n)

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_predicated_loop_verifies_at_unaligned_bounds(self, target):
        """The acceptance bar: the bounded validator proves the predicated
        loop at a trip count that is a multiple of no register width."""
        loaded = load_kernel("s000")
        result = vectorize_kernel(loaded.function, target, epilogue="predicated")
        verifier = AliveVerifier(trip_count=13)
        report = verifier.check_with_alive_unroll(loaded.source, result.source)
        assert report.outcome is Verdict.EQUIVALENT

    def test_both_vls_verify_the_same_kernels(self):
        """Algorithm 1's method cascade proves every predicated-loop kernel,
        and — the VL-agnosticity claim — both simulated VLs get the same
        outcome (s271's if-converted body needs the C-unroll budget; the
        plain kernels discharge out of the box)."""
        def funnel(verifier, scalar, candidate):
            report = verifier.check_with_alive_unroll(scalar, candidate)
            if report.outcome is Verdict.INCONCLUSIVE:
                report = verifier.check_with_c_unroll(scalar, candidate)
            return report.outcome

        for kernel in self.KERNELS:
            loaded = load_kernel(kernel)
            outcomes = []
            for isa in SVE_TARGETS:
                result = vectorize_kernel(loaded.function, isa,
                                          epilogue="predicated")
                verifier = AliveVerifier(trip_count=13)
                outcomes.append(funnel(verifier, loaded.source, result.source))
            assert outcomes[0] == outcomes[1] == Verdict.EQUIVALENT

    def test_default_sve_codegen_is_predicate_first_too(self):
        """Even with the scalar epilogue, SVE code has no unpredicated
        memory: the plain strategy loads/stores through an all-true
        governing predicate."""
        result = vectorize_kernel(load_kernel("s271").function, SVE128)
        assert result.plan.epilogue == "scalar"
        assert SVE128.intrinsic("ptrue") in result.source
        assert SVE128.intrinsic("pload") in result.source
        assert SVE128.intrinsic("pcmpgt") in result.source
        assert SVE128.intrinsic("psel") in result.source
        assert "svbool_t" in result.source

    def test_cost_model_prices_predicate_ops(self):
        from repro.perf.costmodel import cost_model_for

        loaded = load_kernel("s000")
        result = vectorize_kernel(loaded.function, SVE128, epilogue="predicated")
        _, vector = _unaligned_run(loaded, result.source, 13)
        counts = vector.op_counts
        assert counts["vec_whilelt"] >= 4   # one per iteration plus preheader
        assert counts["vec_ptest"] >= 4
        assert counts["vec_pload"] >= 3
        assert counts["vec_pstore"] >= 3
        model = cost_model_for(SVE128)
        for category in ("vec_whilelt", "vec_ptest", "vec_pload",
                         "vec_pstore", "vec_psel", "vec_pred_cmp"):
            assert model.vector_costs[category] > 0
        assert model.cycles_for(counts) > 0

    def test_sve_cycle_estimate_beats_scalar(self):
        from repro.perf.simulator import measure_kernel

        kernel = load_kernel("s000")
        candidate = vectorize_kernel(kernel.function, SVE256,
                                     epilogue="predicated")
        perf = measure_kernel(kernel.name, kernel.source, candidate.source,
                              n=256, target=SVE256)
        assert perf.scalar_cycles > perf.llm_cycles


# ---------------------------------------------------------------------------
# planner legality across the three epilogue strategies
# ---------------------------------------------------------------------------


class TestEpilogueStrategyLegality:
    @pytest.mark.parametrize("target", ["sse4", "neon", "avx2", "avx512"])
    def test_predicated_loop_rejected_off_predicate_targets(self, target):
        plan = plan_vectorization(load_kernel("s000").function, target,
                                  epilogue="predicated")
        assert not plan.feasible
        assert plan.reason is RejectionReason.PREDICATED_LOOP_UNSUPPORTED
        assert get_target(target).display_name in plan.rejection_text
        assert "predicate" in plan.rejection_text

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_masked_tail_redirected_on_sve(self, target):
        plan = plan_vectorization(load_kernel("s000").function, target,
                                  epilogue="masked")
        assert not plan.feasible
        assert plan.reason is RejectionReason.MASKED_TAIL_ON_PREDICATED
        assert "epilogue='predicated'" in plan.rejection_text

    @pytest.mark.parametrize("kernel", ["vsumr", "s453"])
    def test_predicated_loop_shape_restrictions(self, kernel):
        plan = plan_vectorization(load_kernel(kernel).function, "sve128",
                                  epilogue="predicated")
        assert not plan.feasible
        assert plan.reason is RejectionReason.PREDICATED_LOOP_SHAPE

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_registry_carries_every_predicated_op(self, target):
        isa = get_target(target)
        registry = registry_for(isa)
        for op in ("whilelt", "ptest_any", "ptrue", "pnot", "pand", "por",
                   "pcmpgt", "pcmpeq", "psel", "padd", "pload", "pstore",
                   "index"):
            assert isa.intrinsic(op) in registry


# ---------------------------------------------------------------------------
# predicate-aware faults stay inside the candidate's ISA
# ---------------------------------------------------------------------------


class TestSveFaults:
    def _candidate(self, kernel="s271", predicated=True):
        return vectorize_kernel(load_kernel(kernel).function, SVE128,
                                epilogue="predicated" if predicated else "scalar").source

    def test_faults_apply_in_sve_spelling(self):
        source = self._candidate()
        faults = applicable_faults(source)
        assert FaultKind.UNSAFE_HOIST in faults       # via psel
        assert FaultKind.CMP_OFF_BY_ONE in faults     # via pcmpgt
        foreign = {name for t in ALL_TARGETS if t not in (SVE128,)
                   for name in t.op_names.values()}
        for kind in (FaultKind.UNSAFE_HOIST, FaultKind.CMP_OFF_BY_ONE,
                     FaultKind.WRONG_OPERATOR, FaultKind.COMPILE_ERROR):
            mutated = apply_fault(source, kind, random.Random(7))
            assert mutated != source, kind
            assert not any(name in mutated for name in foreign), kind
            if kind is not FaultKind.COMPILE_ERROR:
                parse_function(mutated)  # still SVE-parseable C

    def test_unsafe_hoist_drops_the_predicate_select(self):
        mutated = apply_fault(self._candidate(), FaultKind.UNSAFE_HOIST,
                              random.Random(3))
        assert SVE128.intrinsic("psel") not in mutated
        assert f"{SVE128.intrinsic('set1')}(0)" in mutated

    def test_relaxed_comparison_is_a_predicate_or(self):
        # vif's guard is tie-sensitive (b[i] == 0 must keep a[i]), so the
        # relaxed predicate is a *real* bug translation validation refutes.
        source = self._candidate(kernel="vif")
        mutated = apply_fault(source, FaultKind.CMP_OFF_BY_ONE,
                              random.Random(3))
        assert SVE128.intrinsic("por") in mutated
        assert SVE128.intrinsic("pcmpeq") in mutated
        loaded = load_kernel("vif")
        report = AliveVerifier().check_with_alive_unroll(loaded.source, mutated)
        assert report.outcome is Verdict.NOT_EQUIVALENT

    def test_naive_induction_degrades_svindex_to_svdup(self):
        source = vectorize_kernel(load_kernel("s453").function, SVE128).source
        assert SVE128.intrinsic("index") in source
        assert FaultKind.NAIVE_INDUCTION in applicable_faults(source)
        mutated = apply_fault(source, FaultKind.NAIVE_INDUCTION,
                              random.Random(1))
        assert mutated != source
        assert mutated.count(SVE128.intrinsic("index")) \
            == source.count(SVE128.intrinsic("index")) - 1

    def test_missing_epilogue_does_not_apply_to_predicated_loops(self):
        # There is no epilogue to drop: the whilelt loop subsumed it.
        assert FaultKind.MISSING_EPILOGUE not in applicable_faults(self._candidate())


# ---------------------------------------------------------------------------
# campaigns: two simulated VLs through the same pipeline, AVX2 untouched
# ---------------------------------------------------------------------------

#: AVX2 verdicts + final-code SHAs captured from the PR 2/3/4 lineage before
#: this PR's changes (seed campaign config, workers-independent).  The SVE
#: backend must leave every one of them bit-for-bit identical.
AVX2_GOLDEN = [
    ("s000", "equivalent", "c16d704f95f949ad68114eee0aff2897448ef081ebec0fbcafc50dbbe1045976"),
    ("s112", "not_equivalent", None),
    ("s1119", "equivalent", "4d3e5aa64e37233ab80588ade31a1502916be031a69b41db1c4a6813a85a209c"),
    ("s121", "equivalent", "cab25e2b1e68c9d986d66d974d88d624448bbc27b4da81d8b5bb4cae438f672e"),
    ("s212", "equivalent", "a91322630c13b26f8eb9307675927a52edc36d1ac796d8eb6aa6aaaac404fc18"),
    ("s271", "equivalent", "4244a40fe1d04df9563bd79bb13e91a8283872c84c68438ff49d03cb17e2745f"),
    ("vsumr", "equivalent", "e6685a78fed41fb928ee6aabaa4825bcaa5ecc0652a0545ea3e0eeb08d8b62eb"),
    ("s453", "equivalent", "73c9e3a7f71a840f9170318ae35febe452eaa9ffcf2b4b31b072999bb3d35d48"),
    ("s321", "equivalent", "927c057abd632efcbbcb528d063ad8fc1aeaa6285b24d5c2eedd92b5e415e176"),
    ("vif", "equivalent", "a23ed5101d614da8d33917b418bd4b532f2bf1db15a611f709bc191a565a539d"),
]


class TestSveEndToEnd:
    KERNELS = ["s000", "s271", "vsumr", "s453", "vif"]

    @pytest.mark.parametrize("target", SVE_NAMES)
    def test_sve_campaign_reaches_verdicts(self, target, tmp_path):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        runner = CampaignRunner(CampaignConfig(
            workers=1, target=target, store_path=tmp_path / "cache.jsonl"))
        report = runner.run(self.KERNELS)
        assert report.summary.target == target
        verdicts = {r.kernel: r.result["verdict"] for r in report.records}
        assert set(verdicts) == set(self.KERNELS)
        assert verdicts["s000"] == "equivalent"
        isa = get_target(target)
        for record in report.records:
            code = record.result["final_code"]
            if record.result["plausible"] and code and "_vl" in code:
                assert isa.intrinsic("pload") in code

    def test_two_vls_reach_identical_verdicts(self, tmp_path):
        """The VL-agnosticity demonstration: one multi-target campaign over
        both simulated vector lengths, same verdict per kernel."""
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        runner = CampaignRunner(CampaignConfig(
            workers=1, store_path=tmp_path / "cache.jsonl"))
        reports = runner.run_multi_target(self.KERNELS,
                                          targets=["sve128", "sve256"])
        assert list(reports) == ["sve128", "sve256"]
        v128 = {r.kernel: r.result["verdict"]
                for r in reports["sve128"].records}
        v256 = {r.kernel: r.result["verdict"]
                for r in reports["sve256"].records}
        assert v128 == v256
        # ... through disjoint, target-salted cache entries.
        keys = {name: {r.key for r in report.records}
                for name, report in reports.items()}
        assert not (keys["sve128"] & keys["sve256"])

    def test_multi_target_default_fanout_covers_both_vls(self, tmp_path):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        runner = CampaignRunner(CampaignConfig(workers=1,
                                               store_path=tmp_path / "c.jsonl"))
        reports = runner.run_multi_target(["s000"])
        assert "sve128" in reports and "sve256" in reports
        assert reports["sve128"].summary.target == "sve128"

    def test_avx2_campaign_verdicts_bit_for_bit_unchanged(self):
        """The regression floor: the paper-default AVX2 campaign must still
        produce the PR 2 snapshot's verdicts and code hashes exactly."""
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        report = CampaignRunner(CampaignConfig(workers=1)).run(
            [kernel for kernel, _, _ in AVX2_GOLDEN])
        observed = [(r.kernel, r.result["verdict"], r.result["final_code_sha"])
                    for r in report.records]
        assert observed == AVX2_GOLDEN
