"""NEON backend + target-owned spelling layer tests.

Covers the PR-3 acceptance surface:

* a registry round-trip property over every registered target (NEON
  included) at every element type it supports: every intrinsic spelling a
  target emits must lex and parse, and the interpreter's output must equal
  the verifier's terms evaluated on the same random inputs;
* NEON select-based masking semantics, including the poison/boundary
  behaviour that makes select-masking *unsafe* at region boundaries (which
  is why the planner rejects masked-tail requests on NEON instead of
  legalizing them);
* the masked-tail codegen path on targets that do have masked memory;
* the reverse spelling map: unknown intrinsic names raise a diagnostic
  instead of being coerced into another ISA's grammar;
* the single target-default resolution rule shared by requests, configs
  and campaigns;
* a NEON end-to-end campaign through the same pipeline code paths as x86.
"""

import random

import pytest

from repro.alive.symexec import execute_symbolically
from repro.alive.verifier import AliveVerifier
from repro.cfront.cparser import parse_function
from repro.cfront.lexer import KEYWORDS, tokenize
from repro.interp.interpreter import run_function
from repro.intrinsics import lanemath, registry_for
from repro.lanetypes import ALL_LANE_TYPES, INT32
from repro.llm.faults import FaultKind, apply_fault, applicable_faults
from repro.smt.terms import evaluate, to_signed
from repro.targets import (
    ALL_TARGETS,
    AVX2,
    DEFAULT_TARGET,
    NEON,
    VECTOR_TYPE_LANES,
    UnknownIntrinsicName,
    contains_known_intrinsics,
    detect_target,
    get_target,
    known_intrinsic_spellings,
    resolve_intrinsic,
)
from repro.tsvc import load_kernel
from repro.vectorizer import vectorize_kernel
from repro.vectorizer.planner import RejectionReason, plan_vectorization
from repro.verdict import Verdict

TARGET_NAMES = [t.name for t in ALL_TARGETS]


def _load_spelling(isa) -> str:
    """The target's plain-load spelling (predicate-governed on SVE)."""
    return isa.intrinsic(isa.plain_load_op)


# ---------------------------------------------------------------------------
# registry round-trip: every emitted spelling lexes, parses, interprets and
# symbolically executes
# ---------------------------------------------------------------------------


def _roundtrip_snippet(isa, spec, dtype=INT32, imm=1, loaded_mask=False):
    """A tiny kernel exercising one intrinsic of one target (None = skip).

    ``imm`` is the count of the immediate ops; ``loaded_mask`` makes a
    ``select`` blend under an arbitrary mask read from ``masks`` instead of
    a comparison's 0 / -1 lanes.
    """
    vt = isa.vector_type_for(dtype)
    lanes = isa.lanes_for(dtype)
    name = spec.name

    def op(generic):
        return isa.intrinsic(generic, dtype)

    if isa.has_predicates:
        # Predicate-first targets have no unpredicated loads or stores: the
        # whole snippet runs under an all-true governing predicate.
        pt = isa.predicate_type
        lines = [
            f"{pt} pg = {op('ptrue')}();",
            f"{vt} va = {op('pload')}(pg, ({vt}*)&a[0]);",
            f"{vt} vb = {op('pload')}(pg, ({vt}*)&b[0]);",
        ]

        def store_line(reg):
            return f"{op('pstore')}(pg, ({vt}*)&out[0], {reg});"

        def pred_to_vec(pred):
            return f"{vt} r = {op('psel')}({pred}, va, vb);"
    else:
        lines = [
            f"{vt} va = {op('loadu')}(({vt}*)&a[0]);",
            f"{vt} vb = {op('loadu')}(({vt}*)&b[0]);",
        ]

        def store_line(reg):
            return f"{op('storeu')}(({vt}*)&out[0], {reg});"

        pred_to_vec = None
    result = None  # vector register holding the op result, if any
    if spec.kind == "pload":
        lines.append(f"{vt} r = {name}(pg, ({vt}*)&a[{lanes}]);")
        result = "r"
    elif spec.kind == "pstore":
        lines.append(f"{name}(pg, ({vt}*)&out[0], va);")
    elif spec.kind == "ptrue":
        lines.append(f"{pt} p = {name}();")
        lines.append(pred_to_vec("p"))
        result = "r"
    elif spec.kind == "whilelt":
        lines.append(f"{pt} p = {name}(0, 3);")
        lines.append(pred_to_vec("p"))
        result = "r"
    elif spec.kind == "ptest":
        lines.append(f"out[0] = {name}(pg);")
    elif spec.kind == "pred_unary":
        lines.append(f"{pt} pz = {op('whilelt')}(1, 3);")
        lines.append(f"{pt} p = {name}(pg, pz);")
        lines.append(pred_to_vec("p"))
        result = "r"
    elif spec.kind == "pred_binary":
        lines.append(f"{pt} pz = {op('whilelt')}(0, 2);")
        lines.append(f"{pt} p = {name}(pg, pg, pz);")
        lines.append(pred_to_vec("p"))
        result = "r"
    elif spec.kind == "pred_cmp":
        lines.append(f"{pt} p = {name}(pg, va, vb);")
        lines.append(pred_to_vec("p"))
        result = "r"
    elif spec.kind == "psel":
        lines.append(f"{pt} p = {op('pcmpgt')}(pg, va, vb);")
        lines.append(f"{vt} r = {name}(p, va, vb);")
        result = "r"
    elif spec.kind == "pred_merge_binary":
        lines.append(f"{vt} r = {name}(pg, va, vb);")
        result = "r"
    elif spec.kind == "index":
        lines.append(f"{vt} r = {name}(1, 2);")
        result = "r"
    elif spec.kind == "load":
        lines.append(f"{vt} r = {name}(({vt}*)&a[{lanes}]);")
        result = "r"
    elif spec.kind == "store":
        lines.append(f"{name}(({vt}*)&out[0], va);")
    elif spec.kind == "maskload":
        lines.append(f"{vt} m = {op('set1')}(-1);")
        lines.append(f"{vt} r = {name}(({vt}*)&a[0], m);")
        result = "r"
    elif spec.kind == "maskstore":
        lines.append(f"{vt} m = {op('set1')}(-1);")
        lines.append(f"{name}(({vt}*)&out[0], m, va);")
    elif spec.kind == "pure_binary":
        lines.append(f"{vt} r = {name}(va, vb);")
        result = "r"
    elif spec.kind == "pure_unary":
        lines.append(f"{vt} r = {name}(va);")
        result = "r"
    elif spec.kind == "pure_vector" and spec.op == "select":
        if loaded_mask:
            lines.append(f"{vt} m = {op('loadu')}(({vt}*)&masks[0]);")
        else:
            lines.append(f"{vt} m = {op('cmpgt')}(va, vb);")
        lines.append(f"{vt} r = {name}(va, vb, m);")
        result = "r"
    elif spec.kind == "pure_vector":
        lines.append(f"{vt} r = {name}(va, vb);")
        result = "r"
    elif spec.kind == "pure_imm":
        lines.append(f"{vt} r = {name}(va, {imm});")
        result = "r"
    elif spec.kind == "pure_imm2":
        lines.append(f"{vt} r = {name}(va, vb, 32);")
        result = "r"
    elif spec.kind == "set1":
        lines.append(f"{vt} r = {name}(7);")
        result = "r"
    elif spec.kind == "setzero":
        lines.append(f"{vt} r = {name}();")
        result = "r"
    elif spec.kind in ("setr", "set"):
        args = ", ".join(str(k) for k in range(lanes))
        lines.append(f"{vt} r = {name}({args});")
        result = "r"
    elif spec.kind == "extract":
        lines.append(f"out[0] = {name}(va, 1);")
    elif spec.kind == "cast_low":
        narrow = next((t for t in ALL_TARGETS
                       if t.lanes_for(dtype) == lanes // 2
                       and t.supports("extract", dtype)), None)
        if narrow is None:
            return None
        lines.append(f"{narrow.vector_type_for(dtype)} h = {name}(va);")
        lines.append(f"out[0] = {narrow.intrinsic('extract', dtype)}(h, 1);")
    else:  # pragma: no cover - new kinds must extend this builder
        raise AssertionError(f"round-trip builder misses kind {spec.kind!r}")
    if result is not None:
        lines.append(store_line(result))
    body = "\n    ".join(lines)
    assert registry_for(isa, dtype)[name] is spec
    t = dtype.c_name
    return (f"void kernel({t} * a, {t} * b, {t} * masks, {t} * out, int n)\n"
            f"{{\n    {body}\n}}\n")


#: Every (target, dtype) cell; the default int32 cell keeps the bare target id.
TARGET_DTYPE_CELLS = [
    pytest.param(t.name, dtype,
                 id=t.name if dtype is INT32 else f"{t.name}-{dtype.name}")
    for t in ALL_TARGETS
    for dtype in ALL_LANE_TYPES
    if t.supports_dtype(dtype)
]

ROUNDTRIP_ARRAYS = ("a", "b", "masks", "out")
ROUNDTRIP_ROUNDS = 10


def _snippet_variants(spec, dtype):
    """Snippet options per spelling: the edge shift counts (-1 and 257 read
    as their low byte, 255 and 1), and a ``select`` under a comparison's
    mask and under an arbitrary one."""
    if spec.op in lanemath.SHIFT_OPS:
        return [{"imm": count}
                for count in (0, 1, dtype.bits - 1, dtype.bits, dtype.bits + 8,
                              -1, 257)]
    if spec.op == "select":
        return [{}, {"loaded_mask": True}]
    return [{}]


def _random_lanes(rng, count, dtype):
    """Seeded lane values; about a third are wraparound and byte-select edges."""
    top = dtype.sign_bit
    edges = (-top, top - 1, -1, 0, 1, top // 2, -(top // 2),
             dtype.wrap(0x7F80FF01), dtype.wrap(-0x7F80FF01))
    return [rng.choice(edges) if rng.random() < 0.3
            else rng.randint(-top, top - 1)
            for _ in range(count)]


@pytest.mark.parametrize("target,dtype", TARGET_DTYPE_CELLS)
def test_every_emitted_spelling_round_trips(target, dtype):
    """Every spelling the target emits at ``dtype`` lexes, parses, and
    interprets to the lanes the verifier's terms evaluate to.

    Each snippet runs on seeded random inputs: the interpreter's ``out``
    must equal ``terms.evaluate`` of the symbolic executor's ``out`` cells
    under the same inputs, with no UB on either side.  A failure lists
    every spelling (and snippet option) that disagrees.
    """
    isa = get_target(target)
    size = isa.lanes_for(dtype) * 2
    rng = random.Random(f"{target}:{dtype.name}")
    covered, mismatches = 0, []
    for name, spec in sorted(registry_for(isa, dtype).items()):
        for variant in _snippet_variants(spec, dtype):
            source = _roundtrip_snippet(isa, spec, dtype, **variant)
            if source is None:
                continue
            label = f"{name}{variant or ''}"
            assert any(tok.text == name for tok in tokenize(source)), label
            func = parse_function(source)
            state = execute_symbolically(
                func, {k: size for k in ROUNDTRIP_ARRAYS}, {"n": size})
            assert not state.ub_events, f"{label}: unexpected symbolic UB"
            out_terms = [state.regions["out"].cell(i) for i in range(size)]
            for _ in range(ROUNDTRIP_ROUNDS):
                arrays = {k: _random_lanes(rng, size, dtype)
                          for k in ROUNDTRIP_ARRAYS}
                # Equal lanes in a quarter of the places, so that equality
                # comparisons come out true as well as false.
                arrays["b"] = [x if rng.random() < 0.25 else y
                               for x, y in zip(arrays["a"], arrays["b"])]
                assignment = {f"{k}_{i}": v for k, values in arrays.items()
                              for i, v in enumerate(values)}
                result = run_function(func, arrays, {"n": size})
                assert not result.has_ub, f"{label}: unexpected UB"
                verified = [to_signed(evaluate(term, assignment, dtype.bits),
                                      dtype.bits)
                            for term in out_terms]
                if result.outputs()["out"] != verified:
                    mismatches.append(label)
                    break
            covered += 1
    assert not mismatches, f"interpreter and verifier disagree on {mismatches}"
    assert covered >= 20  # every target models a substantial op set


def test_spelling_reverse_map_is_total_and_consistent():
    for isa in ALL_TARGETS:
        for op, name in isa.op_names.items():
            assert isa.op_of(name) == op
            owner, generic = resolve_intrinsic(name)
            assert generic == op
            assert name in known_intrinsic_spellings()


def test_unknown_spelling_raises_instead_of_defaulting():
    """The old behaviour silently mapped unknown names onto the AVX2 grammar."""
    with pytest.raises(UnknownIntrinsicName, match="no registered target"):
        resolve_intrinsic("_mm999_blendv_epi8")
    from repro.llm.faults import _target_of

    with pytest.raises(UnknownIntrinsicName):
        _target_of("vnotarealq_s32")
    with pytest.raises(UnknownIntrinsicName):
        NEON.op_of(AVX2.intrinsic("add"))  # right op, wrong target's spelling


def test_vector_type_table_and_keywords_derive_from_targets():
    from repro.targets import PREDICATE_TYPE_NAMES, SCALABLE_LANES

    assert VECTOR_TYPE_LANES["int32x4_t"] == 4
    assert VECTOR_TYPE_LANES["svint32_t"] == SCALABLE_LANES
    for isa in ALL_TARGETS:
        expected = SCALABLE_LANES if isa.scalable else isa.lanes
        assert VECTOR_TYPE_LANES[isa.vector_type] == expected
        assert isa.vector_type in KEYWORDS
        assert isa.vector_ctype_for().vector_lanes == expected
    for predicate_type in PREDICATE_TYPE_NAMES:
        assert predicate_type in KEYWORDS


# ---------------------------------------------------------------------------
# NEON select-based masking: semantics, poison and the boundary gap
# ---------------------------------------------------------------------------


class TestNeonSelectMasking:
    def _select_masked_source(self, start: int) -> str:
        """The NEON legalization of a masked load: full load + vbslq select."""
        return f"""
void kernel(int * a, int * out, int n)
{{
    int32x4_t mask = vsetq_s32(-1, 0, -1, 0);
    int32x4_t zero = vdupq_n_s32(0);
    int32x4_t wide = vld1q_s32((int32x4_t*)&a[{start}]);
    int32x4_t v = vbslq_s32(zero, wide, mask);
    vst1q_s32((int32x4_t*)&out[0], v);
}}
"""

    def test_in_bounds_select_masking_is_exact(self):
        func = parse_function(self._select_masked_source(0))
        result = run_function(func, {"a": [10, 20, 30, 40], "out": [0] * 4}, {"n": 4})
        assert not result.has_ub
        assert result.outputs()["out"] == [10, 0, 30, 0]

    def test_boundary_select_masking_reads_every_lane(self):
        """Unlike a real masked load, the select legalization performs the
        full-width load, so *every* out-of-bounds lane is an OOB read —
        masked-off lanes included.  This is exactly why masked tails are
        rejected on NEON rather than legalized."""
        func = parse_function(self._select_masked_source(2))
        result = run_function(func, {"a": [10, 20, 30, 40], "out": [0] * 4}, {"n": 4})
        oob = [e for e in result.ub_events if e.kind == "oob-read"]
        assert [e.index for e in oob] == [4, 5]  # both OOB lanes, on and off
        # The enabled OOB lane carries poison to the store.
        poison_stores = [e for e in result.ub_events if e.kind == "poison-store"]
        assert [e.index for e in poison_stores] == [2]

    def test_symbolic_boundary_select_masking_records_ub(self):
        func = parse_function(self._select_masked_source(2))
        state = execute_symbolically(func, {"a": 4, "out": 4}, {"n": 4})
        assert any("out-of-bounds read" in event for event in state.ub_events)

    def test_masked_off_poison_is_discarded_by_select(self):
        """Away from stores, select-masking is sound: the masked-off lane's
        poison never reaches memory when the select drops it."""
        source = """
void kernel(int * a, int * out, int n)
{
    int32x4_t mask = vsetq_s32(-1, -1, 0, 0);
    int32x4_t zero = vdupq_n_s32(0);
    int32x4_t wide = vld1q_s32((int32x4_t*)&a[2]);
    int32x4_t v = vbslq_s32(zero, wide, mask);
    vst1q_s32((int32x4_t*)&out[0], v);
}
"""
        func = parse_function(source)
        result = run_function(func, {"a": [10, 20, 30, 40], "out": [0] * 4}, {"n": 4})
        # Lanes 0..1 read a[2..3] (in bounds, selected); lanes 2..3 read OOB
        # but the select replaces them with zero, so no poison is stored.
        assert result.outputs()["out"] == [30, 40, 0, 0]
        assert [e.kind for e in result.ub_events] == ["oob-read", "oob-read"]

    def test_neon_registry_has_no_masked_memory(self):
        assert not NEON.has_masked_memory
        assert not NEON.supports("maskload")
        assert not NEON.supports("maskstore")
        assert NEON.zero_call() == ("vdupq_n_s32", (0,))


# ---------------------------------------------------------------------------
# masked tails: legal on x86, rejected with a gap message on NEON
# ---------------------------------------------------------------------------


class TestMaskedTail:
    @pytest.mark.parametrize("target", ["avx2", "avx512"])
    @pytest.mark.parametrize("kernel", ["s000", "s271"])
    def test_masked_tail_replaces_the_scalar_epilogue(self, target, kernel):
        isa = get_target(target)
        loaded = load_kernel(kernel)
        result = vectorize_kernel(loaded.function, isa, epilogue="masked")
        assert result is not None
        assert result.plan.epilogue == "masked"
        assert isa.intrinsic("maskload") in result.source
        assert isa.intrinsic("maskstore") in result.source
        assert result.source.count("for (") == 1  # vector loop only, no epilogue

    @pytest.mark.parametrize("target", ["avx2", "avx512"])
    @pytest.mark.parametrize("kernel", ["s000", "s271"])
    def test_masked_tail_matches_scalar_on_unaligned_trip_counts(self, target, kernel):
        isa = get_target(target)
        loaded = load_kernel(kernel)
        result = vectorize_kernel(loaded.function, isa, epilogue="masked")
        n = isa.lanes + isa.lanes // 2 + 1  # never a multiple of the width
        pointer_params = [p.name for p in loaded.function.params
                         if p.param_type.is_pointer]
        arrays = {name: [(3 * i + 7) % 11 - 5 for i in range(n)]
                  for name in pointer_params}
        scalar = run_function(loaded.function, {k: list(v) for k, v in arrays.items()},
                              {"n": n})
        vector = run_function(parse_function(result.source),
                              {k: list(v) for k, v in arrays.items()}, {"n": n})
        assert not vector.has_ub
        assert vector.outputs() == scalar.outputs()

    def test_masked_tail_verifies_at_unaligned_bounds(self):
        """The tail removes the paper's trip-count alignment assumption: the
        bounded validator proves equivalence at an unaligned bound."""
        loaded = load_kernel("s000")
        result = vectorize_kernel(loaded.function, "avx2", epilogue="masked")
        verifier = AliveVerifier(trip_count=13)
        report = verifier.check_with_alive_unroll(loaded.source, result.source)
        assert report.outcome is Verdict.EQUIVALENT

    def test_neon_masked_tail_rejected_with_gap_message(self):
        plan = plan_vectorization(load_kernel("s000").function, NEON,
                                  epilogue="masked")
        assert not plan.feasible
        assert plan.reason is RejectionReason.MASKED_MEMORY
        assert "NEON" in plan.rejection_text
        assert "masked" in plan.rejection_text
        assert "select-based" in plan.rejection_text

    def test_masked_tail_rejects_reductions(self):
        plan = plan_vectorization(load_kernel("vsumr").function, "avx2",
                                  epilogue="masked")
        assert not plan.feasible
        assert plan.reason is RejectionReason.MASKED_TAIL_SHAPE


# ---------------------------------------------------------------------------
# faults and detection stay inside the candidate's ISA
# ---------------------------------------------------------------------------


class TestTargetOwnedFaults:
    def _neon_candidate(self, kernel="s271"):
        return vectorize_kernel(load_kernel(kernel).function, NEON).source

    def test_faults_apply_in_neon_spelling(self):
        import random

        source = self._neon_candidate()
        faults = applicable_faults(source)
        assert FaultKind.UNSAFE_HOIST in faults
        assert FaultKind.CMP_OFF_BY_ONE in faults
        x86_spellings = {name for t in ALL_TARGETS if t is not NEON
                         for name in t.op_names.values()}
        for kind in (FaultKind.UNSAFE_HOIST, FaultKind.CMP_OFF_BY_ONE,
                     FaultKind.WRONG_OPERATOR, FaultKind.COMPILE_ERROR):
            mutated = apply_fault(source, kind, random.Random(7))
            assert mutated != source, kind
            assert not any(name in mutated for name in x86_spellings), kind
            if kind is not FaultKind.COMPILE_ERROR:
                parse_function(mutated)  # still NEON-parseable C

    def test_unsafe_hoist_uses_the_targets_zero_idiom(self):
        import random

        mutated = apply_fault(self._neon_candidate(), FaultKind.UNSAFE_HOIST,
                              random.Random(3))
        assert "vdupq_n_s32(0)" in mutated
        assert "vbslq_s32" not in mutated

    def test_detect_target_handles_every_backend(self):
        for isa in ALL_TARGETS:
            source = vectorize_kernel(load_kernel("s000").function, isa).source
            assert detect_target(source) is isa
            assert contains_known_intrinsics(source)
        assert not contains_known_intrinsics("for (i = 0; i < n; i++) a[i] = b[i];")

    def test_neon_candidates_carry_the_neon_header(self):
        assert "#include <arm_neon.h>" in self._neon_candidate()
        avx2 = vectorize_kernel(load_kernel("s000").function, AVX2).source
        assert "#include <immintrin.h>" in avx2


# ---------------------------------------------------------------------------
# one default-resolution rule for the active target
# ---------------------------------------------------------------------------


class TestTargetDefaultResolution:
    def test_unset_layers_cannot_disagree(self):
        """Request, tool, FSM and campaign hold no copy of the target: the
        campaign config's one setting defaults to the pipeline default, and
        every layer below reads it from the same RunSpec."""
        from repro.agents.fsm import FSMConfig, VectorizationFSM
        from repro.llm.client import CompletionRequest
        from repro.llm.synthetic import SyntheticLLM
        from repro.pipeline.campaign import CampaignConfig
        from repro.runspec import RunSpec

        assert CompletionRequest(prompt="p", kernel_name="k",
                                 scalar_code="c").spec == RunSpec()
        assert CampaignConfig().spec == RunSpec()
        assert RunSpec().target == DEFAULT_TARGET.name
        assert CampaignConfig(target="neon").spec.target == "neon"
        assert not hasattr(FSMConfig(), "target")
        fsm = VectorizationFSM(SyntheticLLM(), "k", "c")
        assert fsm.tester.spec is fsm.vectorizer.spec is fsm.user_proxy.spec

    def test_synthetic_llm_resolves_an_unset_request_to_the_default(self):
        from repro.llm.client import CompletionRequest
        from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig

        kernel = load_kernel("s000")
        llm = SyntheticLLM(SyntheticLLMConfig(seed=11))
        completions = llm.complete(CompletionRequest(
            prompt="p", kernel_name=kernel.name, scalar_code=kernel.source,
            num_completions=3))
        assert any(DEFAULT_TARGET.intrinsic("loadu") in c.code for c in completions)


# ---------------------------------------------------------------------------
# NEON end-to-end: the same pipeline code paths as the x86 targets
# ---------------------------------------------------------------------------


class TestNeonEndToEnd:
    KERNELS = ["s000", "s271", "vsumr", "s453"]

    def test_neon_campaign_reaches_verdicts(self, tmp_path):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        runner = CampaignRunner(CampaignConfig(
            workers=1, target="neon", store_path=tmp_path / "cache.jsonl"))
        report = runner.run(self.KERNELS)
        assert report.summary.target == "neon"
        verdicts = {r.kernel: r.result["verdict"] for r in report.records}
        assert set(verdicts) == set(self.KERNELS)
        assert verdicts["s000"] == "equivalent"
        for record in report.records:
            code = record.result["final_code"]
            if record.result["plausible"] and code and "q_s32" in code:
                assert "vld1q_s32" in code
                assert not any(_load_spelling(t) in code
                               for t in ALL_TARGETS if t is not NEON)

    def test_multi_target_fanout_includes_neon(self, tmp_path):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        runner = CampaignRunner(CampaignConfig(workers=1,
                                               store_path=tmp_path / "c.jsonl"))
        reports = runner.run_multi_target(["s000"])
        assert list(reports) == TARGET_NAMES
        assert reports["neon"].summary.target == "neon"
        keys = {report.records[0].key for report in reports.values()}
        assert len(keys) == len(TARGET_NAMES)

    def test_neon_cycle_estimate_beats_scalar(self):
        from repro.perf.simulator import measure_kernel

        kernel = load_kernel("s000")
        candidate = vectorize_kernel(kernel.function, NEON)
        perf = measure_kernel(kernel.name, kernel.source, candidate.source,
                              n=256, target=NEON)
        assert perf.scalar_cycles > perf.llm_cycles

    def test_bench_json_writer_accumulates_across_sessions(self, tmp_path):
        import json

        from repro.pipeline.campaign import CampaignConfig, CampaignRunner
        from repro.reporting.campaign import write_bench_json

        runner = CampaignRunner(CampaignConfig(workers=1, target="neon"))
        runner.run(["s000"])
        path = write_bench_json(runner.summaries, tmp_path / "BENCH_campaign.json")
        payload = json.loads(path.read_text())
        assert payload["totals"]["campaigns"] == 1
        assert payload["campaigns"][0]["target"] == "neon"
        assert payload["campaigns"][0]["verdict_counts"]
        # Re-writing the very same summaries is deduplicated — identical
        # sessions cannot grow the file without bound.
        write_bench_json(runner.summaries, path)
        payload = json.loads(path.read_text())
        assert payload["totals"]["campaigns"] == 1
        # A genuinely new campaign point still appends and totals follow.
        runner2 = CampaignRunner(CampaignConfig(workers=1, target="neon"))
        runner2.run(["s000", "s111"])
        write_bench_json(runner2.summaries, path)
        payload = json.loads(path.read_text())
        assert payload["totals"]["campaigns"] == 2
        assert [c["target"] for c in payload["campaigns"]] == ["neon", "neon"]
        assert payload["totals"]["kernels"] == 3

    def test_fsm_evaluation_inherits_the_campaign_target(self):
        """An FSM config with an unset target must run the campaign's ISA —
        the summary label and the produced code can never disagree."""
        from repro.agents.fsm import FSMConfig
        from repro.experiments.fsm_eval import run_fsm_evaluation
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        evaluation = run_fsm_evaluation(
            kernels=["s000"], config=FSMConfig(),
            campaign=CampaignRunner(CampaignConfig(workers=1, target="neon")),
        )
        assert evaluation.campaign_summary.target == "neon"
        codes = [r.final_code for r in evaluation.results if r.final_code]
        assert codes and all("vld1q_s32" in code for code in codes)
        assert not any(AVX2.intrinsic("loadu") in code for code in codes)
