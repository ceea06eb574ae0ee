"""The finite state machine orchestrating the agents (paper Figure 3).

States::

    INIT -> GENERATE -> TEST -> (ACCEPTED | REPAIR | FAILED)
                 ^                    |
                 +----- REPAIR <------+   (up to ``max_attempts`` times)

The FSM's two design goals from the paper are made measurable here: the
number of LLM invocations needed to reach a plausible candidate, and whether
the feedback loop manages to repair an initially wrong candidate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.agents.base import Message
from repro.agents.tester_agent import CompilerTesterAgent
from repro.agents.user_proxy import UserProxyAgent
from repro.agents.vectorizer_agent import VectorizerAgent
from repro.llm.client import LLMClient
from repro.runspec import RunSpec
from repro.verdict import Verdict


class FSMState(enum.Enum):
    INIT = "init"
    GENERATE = "generate"
    TEST = "test"
    REPAIR = "repair"
    ACCEPTED = "accepted"
    FAILED = "failed"


@dataclass
class FSMConfig:
    """Knobs of the orchestration: the paper allows at most ten attempts."""

    max_attempts: int = 10
    temperature: float = 1.0
    checksum_seed: int = 0
    trip_counts: list[int] | None = None


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
    conversation: list[Message] = field(default_factory=list)

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
        self.scalar_code = scalar_code
        self.llm = llm
        self.user_proxy = UserProxyAgent(kernel_name, scalar_code, spec=spec)
        self.vectorizer = VectorizerAgent(llm, kernel_name, scalar_code,
                                          self.config.temperature, spec=spec)
        self.tester = CompilerTesterAgent(
            scalar_code, seed=self.config.checksum_seed, trip_counts=self.config.trip_counts,
            spec=spec,
        )
        self.state = FSMState.INIT

    def run(self) -> FSMResult:
        conversation: list[Message] = []
        history: list[AttemptRecord] = []
        invocations_before = self.llm.invocation_count

        self.state = FSMState.GENERATE
        message = self.user_proxy.initial_message()
        conversation.append(message)

        accepted_code: str | None = None
        attempts = 0
        while attempts < self.config.max_attempts:
            attempts += 1
            # GENERATE: the vectorizer consults the LLM.
            candidate_msg = self.vectorizer.respond(message, conversation)
            conversation.append(candidate_msg)
            self.state = FSMState.TEST
            # TEST: the tester runs checksum-based testing.
            verdict_msg = self.tester.respond(candidate_msg, conversation)
            conversation.append(verdict_msg)
            static_report = verdict_msg.payload.get("static_report")
            history.append(
                AttemptRecord(
                    attempt=attempts,
                    candidate_code=candidate_msg.payload.get("candidate_code", ""),
                    outcome=verdict_msg.payload["outcome"],
                    llm_annotations=candidate_msg.payload.get("annotations", {}),
                    static_flags=(static_report.rule_counts(errors_only=True)
                                  if static_report is not None else {}),
                    static_summary=(static_report.summary_line()
                                    if static_report is not None else None),
                )
            )
            if verdict_msg.payload.get("accepted"):
                accepted_code = verdict_msg.payload.get("candidate_code")
                self.state = FSMState.ACCEPTED
                break
            # REPAIR: feed the tester's report back to the vectorizer.
            self.state = FSMState.REPAIR
            message = verdict_msg

        if accepted_code is None:
            self.state = FSMState.FAILED

        return FSMResult(
            kernel_name=self.kernel_name,
            accepted=accepted_code is not None,
            attempts=attempts,
            llm_invocations=self.llm.invocation_count - invocations_before,
            final_code=accepted_code,
            history=history,
            conversation=conversation,
        )


def run_fsm_on_kernel(llm: LLMClient, kernel_name: str, scalar_code: str,
                      config: FSMConfig | None = None, *,
                      spec: RunSpec = RunSpec()) -> FSMResult:
    """Convenience wrapper: build the FSM for one kernel and run it."""
    return VectorizationFSM(llm, kernel_name, scalar_code, config, spec=spec).run()
