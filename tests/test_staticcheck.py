"""Tests for the static candidate vetter (``repro.staticcheck``).

Three layers: the rule engine itself (golden candidates stay clean, the
fault corpus lights the right rules), the screening integration (advisory
mode is bit-identical, screen mode only strengthens refutations), and the
reporting surface (per-rule counters in summaries and benchmark JSON).
"""

import json
import random

import pytest

from repro.llm.faults import FaultKind, FaultProfile, apply_fault, applicable_faults
from repro.memo import clear_all
from repro.runspec import RunSpec
from repro.staticcheck import Diagnostic, Severity, StaticReport, check_candidate
from repro.tsvc import load_kernel
from repro.vectorizer import plancache
from repro.vectorizer.plancache import cached_parse, cached_vectorize


def try_golden(name, target="avx2", epilogue="scalar", dtype="int32"):
    """The generator's own candidate, or ``None`` when the combination is
    unsupported (e.g. masked epilogues on SVE, which is predicate-first)."""
    kernel = load_kernel(name, dtype=dtype)
    result = cached_vectorize(kernel.source, cached_parse(kernel.source),
                              target, epilogue=epilogue)
    if result is None:
        return kernel, None
    return kernel, result.source


def golden(name, target="avx2", epilogue="scalar", dtype="int32"):
    """The generator's own candidate for one kernel — clean by construction."""
    kernel, source = try_golden(name, target, epilogue, dtype)
    assert source is not None, f"{name} should vectorize for {target}/{epilogue}"
    return kernel, source


class TestDiagnostics:
    def test_render_carries_location_rule_and_severity(self):
        d = Diagnostic("unknown-intrinsic", Severity.ERROR, "no such spelling", (3, 7))
        assert d.render() == "3:7: error: [unknown-intrinsic] no such spelling"

    def test_dict_round_trip(self):
        d = Diagnostic("dead-mask", Severity.WARNING, "mask never read", (1, 2))
        assert Diagnostic.from_dict(d.as_dict()) == d

    def test_report_summary_line_counts_rules(self):
        report = StaticReport(target="avx2")
        report.add("tail-overrun", Severity.ERROR, "one")
        report.add("tail-overrun", Severity.ERROR, "two")
        report.add("dead-mask", Severity.WARNING, "three")
        assert report.summary_line() == "dead-mask, tail-overrun x2"
        assert report.rule_counts(errors_only=True) == {"tail-overrun": 2}
        assert report.has_errors

    def test_clean_report(self):
        report = StaticReport(target="avx2")
        assert report.summary_line() == "clean"
        assert not report.has_errors
        assert report.feedback_text()


class TestGoldenCandidatesAreClean:
    """Zero false positives on the generator's own output (bounded sweep)."""

    KERNELS = ["s000", "s1251", "s243", "s271", "s311", "s317", "s451",
               "s453", "s2711"]

    # Epilogue strategies are target-specific: masked tails use data-vector
    # blends (x86), predicated remainders need a predicate register (SVE).
    @pytest.mark.parametrize("target,epilogue", [
        ("avx2", "scalar"), ("avx2", "masked"),
        ("sve256", "scalar"), ("sve256", "predicated")])
    def test_no_diagnostics_on_golden_candidates(self, target, epilogue):
        checked = 0
        for name in self.KERNELS:
            kernel, source = try_golden(name, target, epilogue)
            if source is None:
                continue  # epilogue strategy unsupported on this target
            checked += 1
            report = check_candidate(source, target=target, epilogue=epilogue,
                                     scalar_source=kernel.source)
            assert report.checked
            assert not report.diagnostics, (
                f"{name}/{target}/{epilogue}: "
                f"{[d.render() for d in report.diagnostics]}")
        assert checked, f"no kernel vectorizes for {target}/{epilogue}"

    def test_no_diagnostics_on_int64_candidates(self):
        checked = 0
        for name in self.KERNELS + ["s1351", "s151", "s2102"]:
            kernel, source = try_golden(name, dtype="int64")
            if source is None:
                continue
            checked += 1
            report = check_candidate(source, target="avx2", epilogue="scalar",
                                     scalar_source=kernel.source)
            assert not report.diagnostics, (
                f"{name}/int64: {[d.render() for d in report.diagnostics]}")
        assert checked >= 3


# One deterministic, known-detected exemplar per fault kind: (kind, kernel,
# target, epilogue, the rules that may legitimately fire).  The corpus
# derives from the fault injector itself, so these are real buggy programs.
FAULT_MATRIX = [
    (FaultKind.COMPILE_ERROR, "s000", "avx2", "scalar",
     {"unknown-intrinsic", "parse-error"}),
    (FaultKind.WRONG_OPERATOR, "s000", "avx2", "scalar",
     {"operator-drift", "operator-loss"}),
    (FaultKind.NAIVE_INDUCTION, "s453", "avx2", "scalar",
     {"naive-induction"}),
    (FaultKind.UNSAFE_HOIST, "s271", "avx2", "scalar",
     {"noop-arith", "dead-mask", "dtype-mismatch"}),
    (FaultKind.CMP_OFF_BY_ONE, "s271", "avx2", "scalar",
     {"operator-drift"}),
    (FaultKind.MISSING_EPILOGUE, "s000", "avx2", "scalar",
     {"missing-epilogue"}),
    (FaultKind.DROP_ACC_INIT, "s311", "avx2", "scalar",
     {"use-before-init"}),
    (FaultKind.UNGOVERNED_MEMORY, "s000", "sve256", "predicated",
     {"ungoverned-memory"}),
]


class TestFaultCorpus:
    @pytest.mark.parametrize("kind,name,target,epilogue,expected_rules",
                             FAULT_MATRIX,
                             ids=[row[0].value for row in FAULT_MATRIX])
    def test_injected_fault_lights_expected_rule(self, kind, name, target,
                                                 epilogue, expected_rules):
        kernel, source = golden(name, target, epilogue)
        mutated = apply_fault(source, kind, random.Random(0))
        assert mutated != source, f"{kind} should apply to {name}/{target}"
        report = check_candidate(mutated, target=target, epilogue=epilogue,
                                 scalar_source=kernel.source)
        fired = set(report.rule_counts(errors_only=True))
        assert fired & expected_rules, (
            f"{kind.value} on {name}: expected one of {sorted(expected_rules)}, "
            f"got {sorted(fired)} "
            f"({[d.render() for d in report.diagnostics]})")

    def test_detection_rate_over_broader_corpus(self):
        """≥80% of injected non-compile faults carry an error diagnostic."""
        kernels = ["s000", "s1251", "s243", "s271", "s311", "s317",
                   "s451", "s453", "s2711"]
        kinds = [FaultKind.WRONG_OPERATOR, FaultKind.NAIVE_INDUCTION,
                 FaultKind.UNSAFE_HOIST, FaultKind.MISSING_EPILOGUE,
                 FaultKind.DROP_ACC_INIT]
        injected = detected = 0
        for name in kernels:
            kernel, source = golden(name)
            for kind in kinds:
                mutated = apply_fault(source, kind, random.Random(1))
                if mutated == source:
                    continue  # fault not expressible on this kernel
                injected += 1
                report = check_candidate(mutated, target="avx2",
                                         epilogue="scalar",
                                         scalar_source=kernel.source)
                if report.has_errors:
                    detected += 1
        assert injected >= 20
        assert detected / injected >= 0.8, f"{detected}/{injected} detected"

    def test_documented_misses_stay_silent_not_wrong(self):
        """A missed fault yields *no* diagnostic — never a wrong one.

        s2711 uses ``!=`` in the scalar loop, which justifies the relaxed
        compare that CMP_OFF_BY_ONE injects; the vetter stays quiet there
        rather than guessing.
        """
        kernel, source = golden("s2711")
        mutated = apply_fault(source, FaultKind.CMP_OFF_BY_ONE, random.Random(0))
        if mutated == source:
            pytest.skip("fault not expressible")
        report = check_candidate(mutated, target="avx2", epilogue="scalar",
                                 scalar_source=kernel.source)
        assert not report.has_errors


class TestNewFaultKinds:
    def test_drop_acc_init_removes_setzero(self):
        _, source = golden("s311")
        mutated = apply_fault(source, FaultKind.DROP_ACC_INIT, random.Random(0))
        assert mutated != source
        assert source.count("_mm256_setzero_si256") \
            == mutated.count("_mm256_setzero_si256") + 1

    def test_ungoverned_memory_substitutes_ptrue(self):
        _, source = golden("s000", "sve256", "predicated")
        mutated = apply_fault(source, FaultKind.UNGOVERNED_MEMORY, random.Random(0))
        assert mutated != source
        assert mutated.count("svptrue_b32") > source.count("svptrue_b32")

    def test_new_kinds_listed_after_calibrated_kinds(self):
        """Appending zero-weight kinds must not perturb seeded rng streams."""
        for name, target, epilogue, new_kind in (
                ("s311", "avx2", "scalar", FaultKind.DROP_ACC_INIT),
                ("s000", "sve256", "predicated", FaultKind.UNGOVERNED_MEMORY)):
            _, source = golden(name, target, epilogue)
            kinds = applicable_faults(source)
            assert new_kind in kinds
            calibrated = [k for k in kinds if k not in
                          (FaultKind.DROP_ACC_INIT, FaultKind.UNGOVERNED_MEMORY)]
            assert kinds[:len(calibrated)] == calibrated

    def test_zero_weight_kinds_never_sampled_by_default(self):
        profile = FaultProfile()
        rng = random.Random(0)
        applicable = [FaultKind.WRONG_OPERATOR, FaultKind.DROP_ACC_INIT,
                      FaultKind.UNGOVERNED_MEMORY]
        for _ in range(50):
            assert profile.sample_kind(rng, applicable) is FaultKind.WRONG_OPERATOR

    def test_sample_stream_unchanged_by_trailing_zero_weight_kinds(self):
        profile = FaultProfile()
        base = [FaultKind.COMPILE_ERROR, FaultKind.WRONG_OPERATOR,
                FaultKind.MISSING_EPILOGUE]
        extended = base + [FaultKind.DROP_ACC_INIT, FaultKind.UNGOVERNED_MEMORY]
        picks_base = [profile.sample_kind(random.Random(s), base)
                      for s in range(40)]
        picks_ext = [profile.sample_kind(random.Random(s), extended)
                     for s in range(40)]
        assert picks_base == picks_ext


class TestSharedParse:
    """The vetter judges the one shared parse of the exact candidate text."""

    def test_vetting_parses_through_the_shared_cache(self):
        kernel, source = golden("vsumr")
        other = apply_fault(source, FaultKind.DROP_ACC_INIT, random.Random(0))
        clear_all()
        misses = plancache.stats.parse_misses
        check_candidate(source, scalar_source=kernel.source)
        assert plancache.stats.parse_misses == misses + 2
        check_candidate(other, scalar_source=kernel.source)
        assert plancache.stats.parse_misses == misses + 3

    def test_renderer_built_candidates_keep_their_anchors(self):
        kernel, source = golden("vsumr")
        mutated = apply_fault(source, FaultKind.DROP_ACC_INIT, random.Random(0))
        report = check_candidate(mutated, target="avx2", epilogue="scalar",
                                 scalar_source=kernel.source)
        rendered = [d.render() for d in report.diagnostics
                    if d.rule_id == "use-before-init"]
        assert rendered
        assert rendered[0].startswith("11:43: error: [use-before-init]")


class TestScreeningIntegration:
    MINI_SUITE = ["s000", "s112", "s1112", "s243", "s451", "s311", "s271"]

    def _campaign(self, static_check, target="avx2", dtype="int32", seed=7):
        from repro.llm.synthetic import SyntheticLLMConfig
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner
        from repro.pipeline.runner import LLMVectorizerConfig

        vcfg = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=seed))
        config = CampaignConfig(workers=1, target=target, dtype=dtype,
                                static_check=static_check)
        return CampaignRunner(config).run(self.MINI_SUITE,
                                          vectorizer_config=vcfg)

    @pytest.mark.parametrize("target,dtype", [
        ("avx2", "int32"), ("sve256", "int32"), ("avx2", "int64")])
    def test_screen_matches_advisory_on_mini_suite(self, target, dtype):
        advisory = self._campaign("advisory", target, dtype)
        screen = self._campaign("screen", target, dtype)
        for a, s in zip(advisory.records, screen.records):
            va, vs = a.result["verdict"], s.result["verdict"]
            if va == "not_equivalent":
                assert vs in ("not_equivalent", "static_reject")
            else:
                assert vs == va
                assert s.result.get("final_code_sha") == a.result.get("final_code_sha")

    def test_advisory_records_differ_from_off_only_in_static_keys(self):
        advisory = self._campaign("advisory")
        off = self._campaign("off")
        for a, o in zip(advisory.records, off.records):
            a_result = {k: v for k, v in a.result.items()
                        if k not in ("static_flags", "static_summary")}
            assert a_result == o.result

    def test_off_mode_records_carry_no_static_keys(self):
        off = self._campaign("off")
        for record in off.records:
            assert "static_flags" not in record.result
            assert "static_summary" not in record.result
        assert off.summary.static_flags == {}

    def test_summary_aggregates_per_rule_flags(self):
        advisory = self._campaign("advisory")
        per_record: dict = {}
        for record in advisory.records:
            for rule, count in record.result.get("static_flags", {}).items():
                per_record[rule] = per_record.get(rule, 0) + count
        assert advisory.summary.static_flags == per_record
        if per_record:
            assert "static_flags" in advisory.summary.as_dict()

    def test_screen_mode_rejects_persistent_fault_as_static_reject(self):
        from repro.agents import FSMConfig, VectorizationFSM
        from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
        from repro.pipeline.campaign import kernel_result_record
        from repro.pipeline.runner import KernelRunResult
        from repro.verdict import Verdict

        profile = FaultProfile(base_fault_rate=1.0, with_feedback_rate=1.0,
                               kind_weights={FaultKind.NAIVE_INDUCTION: 1.0})
        llm = SyntheticLLM(SyntheticLLMConfig(seed=3, fault_profile=profile))
        kernel = load_kernel("s453")
        result = VectorizationFSM(
            llm, kernel.name, kernel.source, FSMConfig(max_attempts=4),
            spec=RunSpec(static_check="screen")).run()
        assert not result.accepted
        assert all(r.outcome is Verdict.STATIC_REJECT for r in result.history)
        assert all(r.static_flags == {"naive-induction": 1} for r in result.history)
        run = KernelRunResult(kernel=kernel, fsm_result=result)
        assert run.verdict is Verdict.STATIC_REJECT
        record = kernel_result_record(run)
        assert record["verdict"] == "static_reject"
        assert record["deciding_stage"] == "staticcheck"
        assert record["static_flags"] == {"naive-induction": 4}

    def test_advisory_mode_never_rejects_statically(self):
        """Advisory acceptance is checksum testing's alone."""
        from repro.agents import CompilerTesterAgent
        from repro.verdict import Verdict

        kernel, source = golden("s000")
        mutated = apply_fault(source, FaultKind.MISSING_EPILOGUE, random.Random(0))
        tester = CompilerTesterAgent(kernel.source, spec=RunSpec(static_check="advisory"))
        reply = tester.test(mutated)
        assert reply.outcome is not Verdict.STATIC_REJECT
        assert "missing-epilogue" in reply.static_report.rule_counts(errors_only=True)


class TestReporting:
    def _report_with(self, result):
        from repro.pipeline.campaign import CampaignRecord, CampaignReport, CampaignSummary

        record = CampaignRecord(kernel="s000", key="k", result=result)
        summary = CampaignSummary(
            label="t", kernels=1, executed=1, cache_hits=0, cache_misses=1,
            resumed=0, wall_clock_seconds=0.1, workers=1,
            verdict_counts={result.get("verdict", ""): 1},
            static_flags={"tail-overrun": 2})
        return CampaignReport(label="t", records=[record], summary=summary)

    def test_summary_table_renders_per_rule_rows(self):
        from repro.reporting.campaign import render_campaign_summary

        report = self._report_with({"verdict": "equivalent"})
        table = render_campaign_summary(report.summary)
        assert "Static: tail-overrun" in table

    def test_report_notes_explain_inconclusive_and_rejected_records(self):
        from repro.reporting.campaign import render_campaign_report

        report = self._report_with({
            "verdict": "static_reject", "deciding_stage": "staticcheck",
            "attempts": 3, "static_summary": "naive-induction x3"})
        rendered = render_campaign_report(report)
        assert "Notes" in rendered
        assert "naive-induction x3" in rendered

    def test_report_notes_absent_for_clean_campaigns(self):
        from repro.reporting.campaign import render_campaign_report

        report = self._report_with({"verdict": "equivalent", "attempts": 1})
        assert "Notes" not in render_campaign_report(report)

    def test_bench_json_accumulates_static_flag_totals(self, tmp_path):
        from repro.reporting.campaign import write_bench_json

        report = self._report_with({"verdict": "equivalent"})
        path = write_bench_json([report.summary], tmp_path / "bench.json")
        payload = json.loads(path.read_text())
        assert payload["totals"]["static_flags"] == {"tail-overrun": 2}
        assert payload["campaigns"][0]["static_flags"] == {"tail-overrun": 2}


class TestExplicitTarget:
    """An explicit target is the one a report judges against, whether or not
    the candidate parses; only ``target=None`` infers one from spellings."""

    BROKEN = "void f(int *a, int n) { __m256i v = _mm512_add_epi32(a, ; }"

    def test_unparseable_candidate_keeps_the_explicit_target(self):
        report = check_candidate(self.BROKEN, target="avx2")
        assert not report.checked
        assert report.target == "avx2"

    def test_parsed_candidate_keeps_the_explicit_target(self):
        _, source = golden("s000", "avx512")
        assert check_candidate(source, target="avx2").target == "avx2"

    def test_no_target_still_detects(self):
        assert check_candidate(self.BROKEN).target == "avx512"
        _, source = golden("s000", "avx512")
        assert check_candidate(source).target == "avx512"


class TestCLI:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_explicit_target_survives_a_parse_error(self, tmp_path, capsys):
        from repro.staticcheck.__main__ import main

        path = self._write(tmp_path, "broken.c", TestExplicitTarget.BROKEN)
        assert main([path, "--target", "avx2"]) == 1
        out = capsys.readouterr().out
        assert "parse-error" in out
        assert "[avx2/int32]" in out

    def test_clean_candidate_exits_zero(self, tmp_path, capsys):
        from repro.staticcheck.__main__ import main

        _, source = golden("s000")
        path = self._write(tmp_path, "good.c", source)
        assert main([path, "--target", "avx2"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_bad_candidate_exits_one_with_diagnostics(self, tmp_path, capsys):
        from repro.staticcheck.__main__ import main

        _, source = golden("s000")
        path = self._write(tmp_path, "bad.c",
                           source.replace("_mm256_add_epi32", "_mm256_addx_epi32"))
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "unknown-intrinsic" in out
        assert "rejected" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        from repro.staticcheck.__main__ import main

        _, source = golden("s000")
        path = self._write(tmp_path, "good.c", source)
        assert main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert StaticReport.from_dict(payload).diagnostics == []
