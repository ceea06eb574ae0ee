"""RQ4 experiment: evaluation of the multi-agent FSM (Section 4.4).

Two quantities from the paper are reproduced:

* how many kernels reach a plausible vectorization with a *single* LLM
  invocation under the FSM (the paper: 96, up from 72 with a bare completion);
* how many kernels the FSM solves within its ten-attempt budget, how many of
  those needed the repair loop (more than one attempt), and the maximum
  number of attempts observed (the paper: 92 solved, nine repaired, at most
  seven attempts).

Kernels run through the campaign engine: each gets a fresh synthetic LLM
seeded from (LLM seed, kernel name), so the evaluation parallelizes and its
results are order- and worker-count-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.fsm import FSMConfig, VectorizationFSM
from repro.llm.synthetic import SyntheticLLM, suite_llm_config
from repro.pipeline.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignSummary,
    KernelTask,
    as_campaign_runner,
    is_error_result,
)
from repro.pipeline.cache import config_fingerprint


@dataclass
class FSMKernelRecord:
    """Slim, JSON-friendly per-kernel outcome of one FSM run."""

    kernel: str
    accepted: bool
    attempts: int
    llm_invocations: int
    final_code: str | None = None

    @property
    def repaired(self) -> bool:
        """True when acceptance required more than one attempt."""
        return self.accepted and self.attempts > 1


@dataclass
class FSMEvaluation:
    results: list[FSMKernelRecord] = field(default_factory=list)
    campaign_summary: "CampaignSummary | None" = None

    @property
    def solved(self) -> list[FSMKernelRecord]:
        return [r for r in self.results if r.accepted]

    @property
    def solved_first_attempt(self) -> list[FSMKernelRecord]:
        return [r for r in self.results if r.accepted and r.attempts == 1]

    @property
    def repaired(self) -> list[FSMKernelRecord]:
        return [r for r in self.results if r.repaired]

    @property
    def max_attempts_to_solve(self) -> int:
        return max((r.attempts for r in self.solved), default=0)

    def summary(self) -> dict[str, int]:
        return {
            "kernels": len(self.results),
            "solved_within_budget": len(self.solved),
            "plausible_with_one_invocation": len(self.solved_first_attempt),
            "repaired_via_feedback": len(self.repaired),
            "max_attempts": self.max_attempts_to_solve,
        }


def fsm_kernel_job(task: KernelTask) -> dict:
    """Campaign job: run the multi-agent FSM on one kernel with its derived seed."""
    payload = task.payload
    llm = SyntheticLLM(replace(payload["llm_config"], seed=task.seed))
    result = VectorizationFSM(llm, task.kernel, task.scalar_code, payload["fsm_config"],
                              spec=payload["spec"]).run()
    return {
        "kernel": task.kernel,
        "accepted": result.accepted,
        "attempts": result.attempts,
        "llm_invocations": result.llm_invocations,
        "final_code": result.final_code,
    }


def run_fsm_evaluation(
    kernels: list[str] | None = None,
    llm: SyntheticLLM | None = None,
    config: FSMConfig | None = None,
    campaign: CampaignRunner | CampaignConfig | None = None,
) -> FSMEvaluation:
    """Run the multi-agent FSM over the suite and collect RQ4 statistics.

    Each kernel runs with a fresh :class:`SyntheticLLM` (``llm``'s config,
    or the default one); any other client raises ``TypeError``.  The agents
    run with the campaign's run settings (``campaign.config.spec``), so the
    jobs and the campaign summary label can never disagree about the target.
    """
    llm_config = suite_llm_config(llm)
    fsm_config = config or FSMConfig()
    runner = as_campaign_runner(campaign)
    spec = runner.config.spec
    payload = {"llm_config": llm_config, "fsm_config": fsm_config, "spec": spec}
    tasks = runner.suite_tasks(
        kernels, payload, config_fingerprint(payload), seed=llm_config.seed
    )
    report = runner.run_tasks(fsm_kernel_job, tasks, label="fsm-eval")
    # Error records carry no FSM fields; the summary's verdict counts
    # still surface them, so a partial campaign yields partial statistics.
    records = [
        FSMKernelRecord(
            kernel=result["kernel"],
            accepted=result["accepted"],
            attempts=result["attempts"],
            llm_invocations=result["llm_invocations"],
            final_code=result["final_code"],
        )
        for result in report.results()
        if not is_error_result(result)
    ]
    return FSMEvaluation(results=records, campaign_summary=report.summary)
