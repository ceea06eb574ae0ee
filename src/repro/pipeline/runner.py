"""LLM-Vectorizer: the end-to-end tool (Figure 2 of the paper).

:class:`LLMVectorizer` ties everything together for one kernel: the
multi-agent FSM drives the LLM to a checksum-plausible candidate, and the
equivalence pipeline (Algorithm 1) then tries to formally verify or refute
it.  Any :class:`~repro.llm.client.LLMClient` can drive one kernel at a
time.  The batch entry point runs the whole TSVC suite through the campaign
engine, which rebuilds the synthetic LLM per kernel, and is what the
experiment harness and the benchmarks build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.fsm import FSMConfig, FSMResult, VectorizationFSM
from repro.llm.client import LLMClient
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig, suite_llm_config
from repro.pipeline.equivalence import EquivalencePipeline, PipelineReport
from repro.runspec import RunSpec
from repro.tsvc import LoadedKernel
from repro.verdict import Verdict


@dataclass
class LLMVectorizerConfig:
    """Top-level configuration of the end-to-end tool.

    The run settings (target, epilogue, dtype, static check) are not part
    of it: they travel as one :class:`~repro.runspec.RunSpec`.
    """

    fsm: FSMConfig = field(default_factory=FSMConfig)
    llm: SyntheticLLMConfig = field(default_factory=SyntheticLLMConfig)


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
        if self.pipeline_report is not None:
            return self.pipeline_report.verdict
        history = self.fsm_result.history
        if history and all(r.outcome is Verdict.STATIC_REJECT for r in history):
            # Screen mode refuted every attempt without executing one.
            return Verdict.STATIC_REJECT
        return Verdict.NOT_EQUIVALENT

    @property
    def deciding_stage(self) -> str | None:
        """The Algorithm 1 stage that decided :attr:`verdict` (None: the FSM's
        repair loop gave up, so no stage ran)."""
        if self.verdict is Verdict.STATIC_REJECT:
            return "staticcheck"
        return self.pipeline_report.deciding_stage if self.pipeline_report is not None else None

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
        if fsm_result.final_code is not None:
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
        clock, cache hit-rate, throughput).  Per-kernel results are identical
        at any parallelism level: each kernel runs with a fresh synthetic LLM
        seeded from ``(llm seed, kernel name)``, never with shared LLM state.
        A client the campaign cannot rebuild that way raises ``TypeError``;
        drive it through :meth:`vectorize`, one kernel at a time.
        """
        from repro.pipeline.campaign import as_campaign_runner

        # The live client's config wins over self.config.llm (they differ when
        # an already-configured SyntheticLLM instance was injected).
        config = replace(self.config, llm=suite_llm_config(self.llm))
        return as_campaign_runner(campaign).run(names, vectorizer_config=config)
