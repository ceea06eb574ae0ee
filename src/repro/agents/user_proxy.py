"""The user proxy agent: initiates the dialogue with code + dependence analysis."""

from __future__ import annotations

from repro.agents.base import Agent, Message
from repro.analysis.features import analyze_kernel
from repro.errors import ReproError
from repro.llm.prompts import build_vectorization_prompt
from repro.runspec import RunSpec
from repro.vectorizer.plancache import cached_parse


class UserProxyAgent(Agent):
    """Builds the opening request for the vectorizer assistant.

    Mirrors the paper's workflow: the proxy attaches the scalar code and the
    Clang-style dependence-analysis remark explaining why the loop was not
    auto-vectorized, and instructs the assistant to eliminate the dependence.
    """

    name = "user_proxy"

    def __init__(self, kernel_name: str, scalar_code: str, *, spec: RunSpec = RunSpec()):
        self.kernel_name = kernel_name
        self.scalar_code = scalar_code
        self.spec = spec

    def initial_message(self) -> Message:
        dependence_report = self._dependence_report()
        prompt = build_vectorization_prompt(self.scalar_code, dependence_report,
                                            target=self.spec.target)
        return Message(
            sender=self.name,
            recipient="vectorizer",
            content=prompt,
            payload={"kernel_name": self.kernel_name, "scalar_code": self.scalar_code},
        )

    def respond(self, message: Message, history: list[Message]) -> Message:
        # The user proxy only speaks first; afterwards the FSM routes between
        # the vectorizer and the tester.
        return self.initial_message()

    def _dependence_report(self) -> str:
        try:
            features = analyze_kernel(cached_parse(self.scalar_code))
        except ReproError:
            return ""
        return features.dependence_summary()
