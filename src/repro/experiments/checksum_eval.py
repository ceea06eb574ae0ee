"""RQ1 experiment: checksum-based evaluation of LLM completions (Table 2, Figure 5).

For every TSVC kernel the synthetic LLM produces ``n`` code completions; each
is classified by checksum-based testing as plausible / not-equivalent /
cannot-compile.  Table 2 reports, for k in {1, 10, 100}, how many kernels
have at least one plausible completion among their first k; Figure 5 reports
the averaged unbiased pass@k estimate.

The evaluation goes through the campaign engine: kernels fan out over the
worker pool, each with a seed derived from (LLM seed, kernel name), so the
sampled completions are identical at any parallelism level.  Completion
batches are prefix-consistent in ``n`` — completion ``i`` of an ``n=100``
batch equals completion ``i`` of an ``n=30`` batch — so a cached larger
batch satisfies any smaller re-estimation request (pass@k re-runs are pure
cache hits).  Identical completions within a batch are checksum-tested once
(they are frequent — the model often regenerates the same correct program),
which keeps the full 149 x 100 evaluation tractable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.interp.checksum import checksum_testing
from repro.llm.client import CompletionRequest
from repro.llm.prompts import build_vectorization_prompt
from repro.llm.synthetic import SyntheticLLM, suite_llm_config
from repro.metrics.passk import pass_at_k_curve
from repro.pipeline.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignSummary,
    KernelTask,
    as_campaign_runner,
    is_error_result,
)
from repro.pipeline.cache import config_fingerprint
from repro.verdict import Verdict


@dataclass
class KernelChecksumRecord:
    """Per-kernel record: outcome of each completion, in generation order."""

    kernel: str
    outcomes: list[Verdict] = field(default_factory=list)
    first_plausible_code: str | None = None

    def plausible_within(self, k: int) -> bool:
        return any(o is Verdict.PLAUSIBLE for o in self.outcomes[:k])

    def all_cannot_compile_within(self, k: int) -> bool:
        prefix = self.outcomes[:k]
        return bool(prefix) and all(o is Verdict.CANNOT_COMPILE for o in prefix)

    @property
    def plausible_count(self) -> int:
        return sum(1 for o in self.outcomes if o is Verdict.PLAUSIBLE)


@dataclass
class ChecksumEvaluation:
    """The full RQ1 evaluation result."""

    records: list[KernelChecksumRecord]
    num_completions: int
    #: Campaign accounting (cache hit-rate, wall clock, throughput).
    campaign_summary: "CampaignSummary | None" = None

    def table2_row(self, k: int) -> dict[str, int]:
        """The Table 2 column for a given k: plausible / not equivalent / cannot compile."""
        plausible = sum(1 for r in self.records if r.plausible_within(k))
        cannot_compile = sum(1 for r in self.records if r.all_cannot_compile_within(k))
        not_equivalent = len(self.records) - plausible - cannot_compile
        return {
            "Plausible": plausible,
            "Not equivalent": not_equivalent,
            "Cannot compile": cannot_compile,
        }

    def pass_at_k(self, ks: list[int]) -> dict[int, float]:
        counts = [(len(r.outcomes), r.plausible_count) for r in self.records]
        return pass_at_k_curve(counts, ks)

    def first_plausible_codes(self) -> dict[str, str]:
        return {r.kernel: r.first_plausible_code for r in self.records
                if r.first_plausible_code is not None}


def classify_completions(scalar_code: str, codes: list[str],
                         checksum_seed: int = 0) -> tuple[list[Verdict], int | None]:
    """Classify completions by checksum testing, deduplicating identical code.

    Returns the per-completion outcomes plus the index of the first plausible
    completion (or None).
    """
    outcomes: list[Verdict] = []
    first_plausible: int | None = None
    cache: dict[str, Verdict] = {}
    for index, code in enumerate(codes):
        digest = hashlib.sha256(code.encode()).hexdigest()
        outcome = cache.get(digest)
        if outcome is None:
            outcome = checksum_testing(scalar_code, code, seed=checksum_seed).outcome
            cache[digest] = outcome
        outcomes.append(outcome)
        if outcome is Verdict.PLAUSIBLE and first_plausible is None:
            first_plausible = index
    return outcomes, first_plausible


def checksum_kernel_job(task: KernelTask) -> dict:
    """Campaign job: sample ``n`` completions for one kernel and classify each."""
    payload = task.payload
    model = SyntheticLLM(replace(payload["llm_config"], seed=task.seed))
    spec = payload["spec"]
    request = CompletionRequest(
        prompt=build_vectorization_prompt(task.scalar_code, target=spec.target),
        kernel_name=task.kernel,
        scalar_code=task.scalar_code,
        num_completions=payload["num_completions"],
        temperature=payload["temperature"],
        spec=spec,
    )
    completions = model.complete(request)
    outcomes, first_plausible = classify_completions(
        task.scalar_code, [c.code for c in completions], payload["checksum_seed"]
    )
    return {
        "kernel": task.kernel,
        "num_completions": len(completions),
        "outcomes": [outcome.value for outcome in outcomes],
        "first_plausible_index": first_plausible,
        "first_plausible_code": completions[first_plausible].code if first_plausible is not None else None,
    }


def _accept_batch(cached: dict, task: KernelTask) -> bool:
    """A stored batch serves any request for the same or fewer completions."""
    return cached.get("num_completions", 0) >= task.payload["num_completions"]


def _slice_batch(cached: dict, task: KernelTask) -> dict:
    """Restrict a (possibly larger) stored batch to the requested prefix."""
    n = task.payload["num_completions"]
    first = cached.get("first_plausible_index")
    within = first is not None and first < n
    return {
        "kernel": cached["kernel"],
        "num_completions": n,
        "outcomes": cached["outcomes"][:n],
        "first_plausible_index": first if within else None,
        "first_plausible_code": cached.get("first_plausible_code") if within else None,
    }


def run_checksum_evaluation(
    num_completions: int = 100,
    kernels: list[str] | None = None,
    llm: SyntheticLLM | None = None,
    checksum_seed: int = 0,
    temperature: float = 1.0,
    campaign: CampaignRunner | CampaignConfig | None = None,
) -> ChecksumEvaluation:
    """Generate ``num_completions`` per kernel and classify each by checksum testing.

    Kernels run through the campaign engine, each with a fresh
    :class:`SyntheticLLM` (``llm``'s config, or the default one) seeded from
    (LLM seed, kernel name); any other client raises ``TypeError``.
    Completions are requested with the campaign's run settings
    (``campaign.config.spec``): its target ISA, epilogue strategy and element
    type.
    """
    llm_config = suite_llm_config(llm)
    runner = as_campaign_runner(campaign)
    spec = runner.config.spec
    payload = {
        "llm_config": llm_config,
        "num_completions": num_completions,
        "checksum_seed": checksum_seed,
        "temperature": temperature,
        "spec": spec,
    }
    # The fingerprint excludes ``num_completions`` so that a larger stored
    # batch is *found* for a smaller request and sliced to its prefix.  The
    # element type is already in the kernel name and source, and the static
    # check plays no part in sampling.
    config_hash = config_fingerprint(
        {"llm": llm_config, "checksum_seed": checksum_seed, "temperature": temperature,
         "target": spec.target, "epilogue": spec.epilogue},
    )
    tasks = runner.suite_tasks(kernels, payload, config_hash, seed=llm_config.seed)
    report = runner.run_tasks(
        checksum_kernel_job, tasks, label="checksum-eval",
        cache_accept=_accept_batch, cache_adapt=_slice_batch,
    )
    # Error records (a kernel whose job raised) carry no outcomes; the
    # campaign summary still counts them, so they are reported, not silent.
    records = [
        KernelChecksumRecord(
            kernel=result["kernel"],
            outcomes=[Verdict(value) for value in result["outcomes"]],
            first_plausible_code=result["first_plausible_code"],
        )
        for result in report.results()
        if not is_error_result(result)
    ]
    return ChecksumEvaluation(
        records=records, num_completions=num_completions, campaign_summary=report.summary
    )
