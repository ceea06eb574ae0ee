"""RQ2 experiment: the equivalence-checking funnel (Table 3).

Starting from one checksum-plausible candidate per kernel, the three
verification techniques are applied as a funnel: each technique only sees the
cases the previous ones left inconclusive.  The result reproduces the
structure of the paper's Table 3, including the "All" summary row and the
contribution of the domain-specific optimizations.

Kernels are independent, so the funnel runs per kernel through the campaign
engine: one job pushes one (scalar, candidate) pair through Algorithm 1's
verification stages (:class:`~repro.pipeline.equivalence.EquivalencePipeline`,
checksum testing skipped — every candidate is already plausible) until a
technique settles it.  The cache key covers the scalar source and the
candidate code, so a re-run (or a pass@k re-estimation feeding the same
candidates) skips already-verified candidates entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignSummary,
    KernelTask,
    as_campaign_runner,
    is_error_result,
)
from repro.pipeline.cache import config_fingerprint
from repro.pipeline.equivalence import EquivalencePipeline
from repro.verdict import Verdict

#: Table 3 row name of each Algorithm 1 stage, in funnel order.
FUNNEL_STAGES = {
    "alive-unroll": "Alive2",
    "c-unroll": "C-Unroll",
    "spatial-splitting": "Splitting",
}


@dataclass
class FunnelStage:
    """One row of Table 3."""

    name: str
    total: int = 0
    equivalent: int = 0
    not_equivalent: int = 0
    inconclusive: int = 0

    def as_row(self) -> dict[str, int | str]:
        return {
            "Techniques": self.name,
            "Total": self.total,
            "Equiv": self.equivalent,
            "Not Equiv": self.not_equivalent,
            "Inconcl": self.inconclusive,
        }


@dataclass
class VerificationFunnel:
    """The whole Table 3: per-stage rows plus per-kernel final verdicts."""

    stages: list[FunnelStage] = field(default_factory=list)
    verdict_by_kernel: dict[str, Verdict] = field(default_factory=dict)
    verified_kernels: list[str] = field(default_factory=list)
    refuted_kernels: list[str] = field(default_factory=list)
    inconclusive_kernels: list[str] = field(default_factory=list)
    checksum_refuted: int = 0
    total_tests: int = 0
    campaign_summary: "CampaignSummary | None" = None

    def summary_row(self) -> dict[str, int | str]:
        return {
            "Techniques": "All",
            "Total": self.total_tests,
            "Equiv": len(self.verified_kernels),
            "Not Equiv": len(self.refuted_kernels) + self.checksum_refuted,
            "Inconcl": len(self.inconclusive_kernels),
        }

    def rows(self) -> list[dict[str, int | str]]:
        checksum_row = {
            "Techniques": "Checksum",
            "Total": self.total_tests,
            "Equiv": 0,
            "Not Equiv": self.checksum_refuted,
            "Inconcl": self.total_tests - self.checksum_refuted,
        }
        return [checksum_row] + [stage.as_row() for stage in self.stages] + [self.summary_row()]


def funnel_kernel_job(task: KernelTask) -> dict:
    """Campaign job: push one candidate through the funnel until settled."""
    report = EquivalencePipeline().check_equivalence(
        task.scalar_code, task.candidate_code, skip_checksum=True)
    return {
        "kernel": task.kernel,
        "verdict": report.verdict.value,
        # An undecided candidate's deciding stage is "none": no Table 3 row.
        "deciding_stage": FUNNEL_STAGES.get(report.deciding_stage),
        "stage_outcomes": {FUNNEL_STAGES[stage]: outcome
                           for stage, outcome in report.stage_outcomes.items()},
    }


def run_verification_funnel(
    plausible_candidates: dict[str, str],
    scalar_sources: dict[str, str],
    total_tests: int | None = None,
    campaign: CampaignRunner | CampaignConfig | None = None,
) -> VerificationFunnel:
    """Run the three-stage funnel over checksum-plausible candidates.

    ``plausible_candidates`` maps kernel name to the plausible vectorized
    source; ``scalar_sources`` maps kernel name to the scalar source.
    ``total_tests`` is the size of the full dataset (for the Checksum row);
    kernels without a plausible candidate count as refuted by checksum.
    """
    # The verifier is deterministic and has no settings, so the seed plays
    # no role here; pinning it keeps the content-addressed key purely
    # (scalar, candidate).
    config_hash = config_fingerprint({})
    tasks = [
        KernelTask(
            kernel=kernel_name,
            scalar_code=scalar_sources[kernel_name],
            seed=0,
            config_hash=config_hash,
            payload={},
            candidate_code=candidate,
        )
        for kernel_name, candidate in plausible_candidates.items()
    ]
    # The funnel has no target knob of its own — each candidate carries its
    # width and the verifier adapts — so label the summary with the ISA the
    # candidates actually use rather than inheriting the campaign default.
    from repro.targets import contains_known_intrinsics, detect_target

    candidate_isas = {detect_target(code).name for code in plausible_candidates.values()
                      if contains_known_intrinsics(code)}
    if len(candidate_isas) == 1:
        summary_target = candidate_isas.pop()
    else:
        summary_target = "mixed" if candidate_isas else "avx2"
    runner = as_campaign_runner(campaign)
    report = runner.run_tasks(funnel_kernel_job, tasks, label="verification-funnel",
                              target=summary_target)

    total = total_tests if total_tests is not None else len(plausible_candidates)
    funnel = VerificationFunnel(
        total_tests=total,
        checksum_refuted=total - len(plausible_candidates),
        campaign_summary=report.summary,
    )
    # Error records settle in no funnel stage; the campaign summary still
    # counts them, so a partial funnel yields partial (not crashed) rows.
    results = [result for result in report.results() if not is_error_result(result)]
    pending = list(results)
    for stage_name in FUNNEL_STAGES.values():
        stage = FunnelStage(name=stage_name, total=len(pending))
        still_pending = []
        for result in pending:
            kernel_name = result["kernel"]
            if result["deciding_stage"] == stage_name:
                verdict = Verdict(result["verdict"])
                funnel.verdict_by_kernel[kernel_name] = verdict
                if verdict is Verdict.EQUIVALENT:
                    stage.equivalent += 1
                    funnel.verified_kernels.append(kernel_name)
                else:
                    stage.not_equivalent += 1
                    funnel.refuted_kernels.append(kernel_name)
            else:
                stage.inconclusive += 1
                still_pending.append(result)
        funnel.stages.append(stage)
        pending = still_pending

    for result in pending:
        funnel.verdict_by_kernel[result["kernel"]] = Verdict.INCONCLUSIVE
        funnel.inconclusive_kernels.append(result["kernel"])
    return funnel
