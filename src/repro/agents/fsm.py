"""The finite state machine orchestrating the agents (paper Figure 3).

The three agents take turns in a fixed order::

    user proxy --prompt--> vectorizer --candidate--> tester --plausible--> accepted
                               ^                        |
                               +------- feedback -------+   (at most ``max_attempts`` rounds)

Each turn is one typed call, and each generate/test round is one
:class:`AttemptRecord`.  The FSM's two design goals from the paper are made
measurable here: the number of LLM invocations needed to reach a plausible
candidate, and whether the feedback loop manages to repair an initially
wrong candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.tester_agent import CompilerTesterAgent
from repro.agents.user_proxy import UserProxyAgent
from repro.agents.vectorizer_agent import VectorizerAgent
from repro.llm.client import LLMClient, LLMCompletion
from repro.runspec import RunSpec
from repro.verdict import Verdict


@dataclass
class FSMConfig:
    """The paper allows at most ten attempts."""

    max_attempts: int = 10


@dataclass
class AttemptRecord:
    """One generate/test round."""

    attempt: int
    candidate_code: str
    #: The tester's verdict: plausible, not_equivalent, cannot_compile or
    #: static_reject.
    outcome: Verdict
    llm_annotations: dict = field(default_factory=dict)
    #: Per-rule *error* counts from the static vetter (empty when it ran
    #: clean or was off) and its one-line summary of everything it saw.
    static_flags: dict = field(default_factory=dict)
    static_summary: str | None = None


@dataclass
class FSMResult:
    """Outcome of a full FSM run on one kernel."""

    kernel_name: str
    accepted: bool
    attempts: int
    llm_invocations: int
    final_code: str | None
    history: list[AttemptRecord] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        """True when acceptance required more than one attempt."""
        return self.accepted and self.attempts > 1


class VectorizationFSM:
    """Drives the three agents until acceptance or the attempt budget runs out.

    ``spec`` (target, epilogue, dtype, static-check mode) is handed to all
    three agents unchanged.
    """

    def __init__(self, llm: LLMClient, kernel_name: str, scalar_code: str,
                 config: FSMConfig | None = None, *, spec: RunSpec = RunSpec()):
        self.config = config or FSMConfig()
        self.kernel_name = kernel_name
        self.llm = llm
        self.user_proxy = UserProxyAgent(scalar_code, spec=spec)
        self.vectorizer = VectorizerAgent(llm, kernel_name, scalar_code, spec=spec)
        self.tester = CompilerTesterAgent(scalar_code, spec=spec)

    def run(self) -> FSMResult:
        history: list[AttemptRecord] = []
        invocations_before = self.llm.invocation_count
        prompt = self.user_proxy.opening_prompt()

        accepted_code: str | None = None
        completion: LLMCompletion | None = None
        feedback = ""
        while len(history) < self.config.max_attempts:
            completion = (self.vectorizer.propose(prompt) if completion is None
                          else self.vectorizer.repair(completion.code, feedback))
            reply = self.tester.test(completion.code)
            static_report = reply.static_report
            history.append(AttemptRecord(
                attempt=len(history) + 1,
                candidate_code=completion.code,
                outcome=reply.outcome,
                llm_annotations=dict(completion.annotations),
                static_flags=(static_report.rule_counts(errors_only=True)
                              if static_report is not None else {}),
                static_summary=(static_report.summary_line()
                                if static_report is not None else None),
            ))
            if reply.outcome is Verdict.PLAUSIBLE:
                accepted_code = completion.code
                break
            feedback = reply.feedback

        return FSMResult(
            kernel_name=self.kernel_name,
            accepted=accepted_code is not None,
            attempts=len(history),
            llm_invocations=self.llm.invocation_count - invocations_before,
            final_code=accepted_code,
            history=history,
        )
