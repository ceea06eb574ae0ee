"""Tests for the one settings object, :class:`repro.runspec.RunSpec`.

A campaign sets target, epilogue, dtype and static check once, on
``CampaignConfig``; every layer below reads ``CampaignConfig.spec``.
These tests pin that contract: unknown settings fail before any kernel
runs, every experiment runs the campaign's settings, non-scalar epilogues
reach the same records end to end, and no layer grows its own copy of a
setting again.
"""

import dataclasses
import inspect

import pytest

from repro.runspec import RunSpec
from repro.targets import NEON, SVE256

SETTING_NAMES = ("target", "epilogue", "dtype", "static_check")


class TestRunSpec:
    def test_defaults_match_the_campaign_config(self):
        from repro.pipeline.campaign import CampaignConfig

        assert RunSpec() == CampaignConfig().spec == RunSpec(
            target="avx2", epilogue="scalar", dtype="int32", static_check="advisory")

    def test_aliases_canonicalise(self):
        spec = RunSpec(target="SVE", dtype="int64_t")
        assert (spec.target, spec.dtype) == ("sve256", "int64")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunSpec().target = "neon"

    @pytest.mark.parametrize("field,value,message", [
        ("target", "avx3", "unknown target ISA"),
        ("dtype", "int8", "unknown lane element type"),
        ("epilogue", "maskd", "unknown epilogue strategy"),
        ("static_check", "scren", "unknown static_check mode"),
    ])
    def test_unknown_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunSpec(**{field: value})


class TestUnknownSettingsFailFast:
    """A misspelt mode must not run as advisory under its own cache keys,
    and a misspelt epilogue must not turn every kernel into an error record."""

    def test_unknown_static_check_rejected_before_any_kernel_runs(self):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        with pytest.raises(ValueError, match="scren"):
            CampaignRunner(CampaignConfig(workers=1, static_check="scren")).run(["s000"])

    def test_unknown_epilogue_rejected_before_any_kernel_runs(self):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        with pytest.raises(ValueError, match="maskd"):
            CampaignRunner(CampaignConfig(workers=1, epilogue="maskd")).run(["s000", "s271"])


class TestExperimentsRunTheCampaignSettings:
    def test_checksum_evaluation_uses_the_campaign_target(self):
        from repro.experiments.checksum_eval import run_checksum_evaluation
        from repro.pipeline.campaign import CampaignConfig

        evaluation = run_checksum_evaluation(
            num_completions=2, kernels=["s000"],
            campaign=CampaignConfig(workers=1, target="neon"))
        assert evaluation.campaign_summary.target == "neon"
        codes = list(evaluation.first_plausible_codes().values())
        assert codes and all("vld1q_s32" in code for code in codes)

    def test_performance_evaluation_prices_with_the_campaign_target(self):
        from repro.experiments.performance_eval import run_performance_evaluation
        from repro.perf.simulator import measure_kernel
        from repro.pipeline.campaign import CampaignConfig
        from repro.tsvc import load_kernel
        from repro.vectorizer import vectorize_kernel

        kernel = load_kernel("s000")
        candidate = vectorize_kernel(kernel.function, NEON).source
        evaluation = run_performance_evaluation(
            {"s000": candidate}, trip_count=64,
            campaign=CampaignConfig(workers=1, target="neon"))
        assert evaluation.campaign_summary.target == "neon"
        (performance,) = evaluation.performances
        neon = measure_kernel("s000", kernel.source, candidate, n=64, seed=11, target=NEON)
        assert performance.llm_cycles == neon.llm_cycles
        assert [r.baseline_cycles for r in performance.records] \
            == [r.baseline_cycles for r in neon.records]

    def test_fsm_evaluation_uses_the_campaign_epilogue(self):
        from repro.experiments.fsm_eval import run_fsm_evaluation
        from repro.pipeline.campaign import CampaignConfig

        evaluation = run_fsm_evaluation(
            kernels=["s000"],
            campaign=CampaignConfig(workers=1, target="sve256", epilogue="predicated"))
        assert evaluation.campaign_summary.target == "sve256"
        codes = [r.final_code for r in evaluation.results if r.final_code]
        assert codes and all(SVE256.intrinsic("whilelt") in code for code in codes)


#: (kernel, verdict, final_code_sha) of the two non-scalar epilogue
#: campaigns at LLM seed 2024, pinned from the code before RunSpec existed.
MASKED_AVX2 = [
    ("s000", "equivalent", "9b35a4db6a57c32951755fe426c15dfbb8bc64658000f5ad95e0edf88c9817ca"),
    ("s271", "equivalent", "040d034747a2b59cf6516104450863c0a365d24ed5967d94bbbbccb69c75e52e"),
    ("vif", "equivalent", "d4fea3a3553358c1bddc5335f36e557af86bb151a7cb158b84dc01ed80e3bb94"),
    ("vsumr", "equivalent", "fbf4fc6fdc819a29f7e08725ba71666831a9b17c0bdf526c26eeb23cf810facb"),
    ("s453", "equivalent", "dade6fc8364982cfb696bfe3585b5e271bac0b9d6140f14b07bd679828b491d3"),
    ("s112", "not_equivalent", None),
    ("s1119", "equivalent", "4d3e5aa64e37233ab80588ade31a1502916be031a69b41db1c4a6813a85a209c"),
]
PREDICATED_SVE256 = [
    ("s000", "equivalent", "76ad5f71a768f5629336930cfb9fcb6e20e3a274332849d29870a36c9e5e4a21"),
    ("s271", "equivalent", "7b621d288f124ba02a2b932fe748099da8a53d041c96ccc1d52f1b9dd70f7931"),
    ("vif", "equivalent", "f33c6784b75a62ef53ef9034edeb37e68ea5638eb2a3009feef9cee40da3dd84"),
    ("vsumr", "equivalent", "fbf4fc6fdc819a29f7e08725ba71666831a9b17c0bdf526c26eeb23cf810facb"),
    ("s453", "equivalent", "dade6fc8364982cfb696bfe3585b5e271bac0b9d6140f14b07bd679828b491d3"),
    ("s112", "not_equivalent", None),
    ("s1119", "equivalent", "4d3e5aa64e37233ab80588ade31a1502916be031a69b41db1c4a6813a85a209c"),
]


class TestNonScalarEpilogueCampaigns:
    @pytest.mark.parametrize("target,epilogue,golden", [
        ("avx2", "masked", MASKED_AVX2),
        ("sve256", "predicated", PREDICATED_SVE256),
    ])
    def test_mini_campaign_matches_pins(self, target, epilogue, golden):
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        report = CampaignRunner(CampaignConfig(
            workers=1, target=target, epilogue=epilogue)).run([k for k, _, _ in golden])
        assert report.summary.target == target
        assert [(r.kernel, r.result["verdict"], r.result["final_code_sha"])
                for r in report.records] == golden


class TestOneSettingsObject:
    """Regrowth guard: no layer below the campaign declares a setting."""

    def test_no_layer_declares_a_setting(self):
        from repro.agents.fsm import FSMConfig
        from repro.llm.client import CompletionRequest
        from repro.pipeline.runner import LLMVectorizerConfig

        for cls in (LLMVectorizerConfig, FSMConfig, CompletionRequest):
            declared = {f.name for f in dataclasses.fields(cls)}
            assert not declared & set(SETTING_NAMES), cls.__name__

    def test_no_entry_point_takes_a_target_override(self):
        from repro.experiments.checksum_eval import run_checksum_evaluation
        from repro.experiments.performance_eval import run_performance_evaluation
        from repro.pipeline.cache import config_fingerprint
        from repro.pipeline.campaign import CampaignRunner
        from repro.pipeline.incremental import plan_reverify, reverify

        for fn in (CampaignRunner.run, CampaignRunner.vectorize_tasks, plan_reverify,
                   reverify, run_checksum_evaluation, run_performance_evaluation):
            assert "target" not in inspect.signature(fn).parameters, fn.__qualname__
        assert list(inspect.signature(config_fingerprint).parameters) == ["obj"]
        import repro.targets

        assert not hasattr(repro.targets, "resolve_target_setting")
