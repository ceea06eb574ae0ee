"""LLM-Vectorizer: the end-to-end tool (Figure 2 of the paper).

:class:`LLMVectorizer` ties everything together for one kernel: the
multi-agent FSM drives the LLM to a checksum-plausible candidate, and the
equivalence pipeline (Algorithm 1) then tries to formally verify or refute
it.  The batch entry point runs the whole TSVC suite and is what the
experiment harness and the benchmarks build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.fsm import FSMConfig, FSMResult, VectorizationFSM
from repro.llm.client import LLMClient
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline.equivalence import EquivalencePipeline, PipelineReport
from repro.pipeline.verdict import Verdict
from repro.runspec import RunSpec
from repro.tsvc import LoadedKernel


@dataclass
class LLMVectorizerConfig:
    """Top-level configuration of the end-to-end tool.

    The run settings (target, epilogue, dtype, static check) are not part
    of it: they travel as one :class:`~repro.runspec.RunSpec`.
    """

    fsm: FSMConfig = field(default_factory=FSMConfig)
    llm: SyntheticLLMConfig = field(default_factory=SyntheticLLMConfig)
    run_verification: bool = True


@dataclass
class KernelRunResult:
    """Everything the tool produced for one kernel."""

    kernel: LoadedKernel
    fsm_result: FSMResult
    pipeline_report: PipelineReport | None = None

    @property
    def plausible(self) -> bool:
        return self.fsm_result.accepted

    @property
    def verdict(self) -> Verdict:
        if not self.plausible:
            history = self.fsm_result.history
            if history and all(r.outcome == "static_reject" for r in history):
                # Screen mode refuted every attempt without executing one.
                return Verdict.STATIC_REJECT
            return Verdict.NOT_EQUIVALENT
        if self.pipeline_report is None:
            return Verdict.PLAUSIBLE
        return self.pipeline_report.verdict

    @property
    def vectorized_code(self) -> str | None:
        return self.fsm_result.final_code


class LLMVectorizer:
    """The end-to-end tool: scalar C in, (verified) vectorized C out."""

    def __init__(self, config: LLMVectorizerConfig | None = None, llm: LLMClient | None = None):
        self.config = config or LLMVectorizerConfig()
        self.llm = llm or SyntheticLLM(self.config.llm)
        self.pipeline = EquivalencePipeline()

    def vectorize(self, kernel: LoadedKernel, spec: RunSpec = RunSpec()) -> KernelRunResult:
        """Run the full tool on one kernel with the run settings ``spec``."""
        fsm = VectorizationFSM(self.llm, kernel.name, kernel.source, self.config.fsm, spec=spec)
        fsm_result = fsm.run()
        pipeline_report = None
        if fsm_result.accepted and self.config.run_verification and fsm_result.final_code:
            # Checksum already passed inside the FSM; Algorithm 1's later
            # stages do the formal work.
            pipeline_report = self.pipeline.check_equivalence(
                kernel.source, fsm_result.final_code, skip_checksum=True
            )
        return KernelRunResult(kernel=kernel, fsm_result=fsm_result, pipeline_report=pipeline_report)

    def vectorize_suite(self, names: list[str] | None = None,
                        campaign: "CampaignConfig | None" = None) -> "CampaignReport":
        """Run the tool over the TSVC suite (or the subset ``names``).

        Suite execution goes through the campaign engine: kernels fan out
        over a process pool (``campaign.workers``), results are cached
        content-addressed and appended to a resumable JSONL store, and the
        returned :class:`~repro.pipeline.campaign.CampaignReport` carries
        per-kernel verdicts plus the campaign summary (verdict counts, wall
        clock, cache hit-rate, throughput).  With the synthetic LLM,
        per-kernel results are identical at any parallelism level: each
        kernel runs with a seed derived from ``(llm seed, kernel name)``,
        never with shared LLM state.  An injected non-synthetic client
        cannot be reconstructed inside worker processes, so it runs the
        serial in-process path (shared client, no caching) instead.
        """
        from repro.pipeline.campaign import as_campaign_runner

        runner = as_campaign_runner(campaign)
        if not isinstance(self.llm, SyntheticLLM):
            return self._vectorize_suite_serial(names, runner.config.spec)
        # The live client's config wins over self.config.llm (they differ when
        # an already-configured SyntheticLLM instance was injected).
        config = replace(self.config, llm=self.llm.config)
        return runner.run(names, vectorizer_config=config)

    def _vectorize_suite_serial(self, names: list[str] | None,
                                spec: RunSpec) -> "CampaignReport":
        """Serial fallback for LLM clients that cannot be shipped to workers."""
        import time

        from repro.pipeline.campaign import (
            CampaignRecord,
            CampaignReport,
            CampaignSummary,
            count_verdicts,
            kernel_result_record,
        )
        from repro.tsvc import load_suite

        started = time.perf_counter()
        records = []
        for kernel in load_suite(names, dtype=spec.dtype):
            result = kernel_result_record(self.vectorize(kernel, spec))
            records.append(CampaignRecord(kernel=kernel.name, key="", result=result))
        summary = CampaignSummary(
            label="vectorize", kernels=len(records), executed=len(records),
            cache_hits=0, cache_misses=0, resumed=0,
            wall_clock_seconds=time.perf_counter() - started, workers=1,
            verdict_counts=count_verdicts(records),
            target=spec.target,
            dtype=spec.dtype,
        )
        return CampaignReport(label="vectorize", records=records, summary=summary)
