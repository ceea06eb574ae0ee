"""RQ3 experiment: runtime speedup of verified vectorizations (Figure 1(c), Figure 6).

For every kernel whose vectorization was proven equivalent, the cycle
simulator measures the LLM-generated code and each baseline compiler's code,
and the speedups are grouped into the six categories of Figure 6.

Measurements run per kernel through the campaign engine; the cache key
covers the scalar source, the verified candidate and the simulator
parameters, so repeated Figure 6 builds are pure cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.features import ALL_CATEGORIES
from repro.perf.simulator import KernelPerformance, SpeedupRecord, measure_kernel
from repro.pipeline.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignSummary,
    KernelTask,
    as_campaign_runner,
    is_error_result,
)
from repro.pipeline.cache import config_fingerprint
from repro.tsvc import load_kernel

COMPILER_NAMES = ("GCC", "Clang", "ICC")
#: Seed of the simulated inputs every candidate is measured on (in every task key).
MEASUREMENT_SEED = 11


@dataclass
class PerformanceEvaluation:
    """Speedups for verified kernels, ready to be grouped Figure-6 style."""

    performances: list[KernelPerformance] = field(default_factory=list)
    campaign_summary: "CampaignSummary | None" = None

    def by_category(self) -> dict[str, list[KernelPerformance]]:
        groups: dict[str, list[KernelPerformance]] = {name: [] for name in ALL_CATEGORIES}
        for performance in self.performances:
            groups.setdefault(performance.category, []).append(performance)
        return groups

    def speedup_rows(self) -> list[dict[str, object]]:
        """One row per kernel: category plus speedup against each compiler."""
        rows = []
        for performance in sorted(self.performances, key=lambda p: (p.category, p.kernel)):
            row: dict[str, object] = {"Test": performance.kernel, "Category": performance.category}
            for compiler in COMPILER_NAMES:
                row[f"vs {compiler}"] = round(performance.speedup_over(compiler), 2)
            rows.append(row)
        return rows

    def category_summary(self) -> list[dict[str, object]]:
        """Geometric-mean speedup per category per compiler (Figure 6 shape)."""
        summary = []
        for category, group in self.by_category().items():
            if not group:
                continue
            row: dict[str, object] = {"Category": category, "Tests": len(group)}
            for compiler in COMPILER_NAMES:
                speedups = [p.speedup_over(compiler) for p in group]
                row[f"vs {compiler}"] = round(_geomean(speedups), 2)
            summary.append(row)
        return summary

    def speedup_range(self) -> tuple[float, float]:
        """Min and max speedup over any compiler (the paper's 1.1x-9.4x headline)."""
        values = [p.speedup_over(c) for p in self.performances for c in COMPILER_NAMES]
        if not values:
            return (0.0, 0.0)
        return (min(values), max(values))


def _geomean(values: list[float]) -> float:
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))


def performance_kernel_job(task: KernelTask) -> dict:
    """Campaign job: simulate one verified kernel against every baseline."""
    payload = task.payload
    performance = measure_kernel(
        kernel_name=task.kernel,
        scalar_code=task.scalar_code,
        llm_code=task.candidate_code,
        n=payload["trip_count"],
        seed=payload["seed"],
        target=payload["target"],
    )
    return {
        "kernel": performance.kernel,
        "category": performance.category,
        "llm_cycles": performance.llm_cycles,
        "scalar_cycles": performance.scalar_cycles,
        "records": [
            {
                "kernel": record.kernel,
                "compiler": record.compiler,
                "baseline_cycles": record.baseline_cycles,
                "llm_cycles": record.llm_cycles,
                "baseline_vectorized": record.baseline_vectorized,
                "baseline_reason": record.baseline_reason,
            }
            for record in performance.records
        ],
    }


def run_performance_evaluation(
    verified_candidates: dict[str, str],
    trip_count: int = 256,
    campaign: CampaignRunner | CampaignConfig | None = None,
) -> PerformanceEvaluation:
    """Measure every verified (kernel -> vectorized source) pair against the baselines.

    The candidates are priced with the cost tables of the campaign's target
    ISA (``campaign.config.spec.target``; AVX2, the paper's setup, by
    default).
    """
    runner = as_campaign_runner(campaign)
    payload = {"trip_count": trip_count, "seed": MEASUREMENT_SEED, "target": runner.config.spec.target}
    config_hash = config_fingerprint(payload)
    tasks = [
        KernelTask(
            kernel=kernel_name,
            scalar_code=load_kernel(kernel_name).source,
            seed=MEASUREMENT_SEED,
            config_hash=config_hash,
            payload=payload,
            candidate_code=vectorized_source,
        )
        for kernel_name, vectorized_source in sorted(verified_candidates.items())
    ]
    report = runner.run_tasks(performance_kernel_job, tasks, label="performance-eval")
    # Error records carry no cycle measurements; the campaign summary still
    # counts them, so a partial measurement run yields partial speedups.
    performances = [
        KernelPerformance(
            kernel=result["kernel"],
            category=result["category"],
            llm_cycles=result["llm_cycles"],
            scalar_cycles=result["scalar_cycles"],
            records=[SpeedupRecord(**record) for record in result["records"]],
        )
        for result in report.results()
        if not is_error_result(result)
    ]
    return PerformanceEvaluation(performances=performances, campaign_summary=report.summary)
