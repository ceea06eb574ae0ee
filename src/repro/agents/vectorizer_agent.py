"""The vectorizer assistant agent: consults the LLM for candidate code."""

from __future__ import annotations

from repro.agents.base import Agent, Message
from repro.llm.client import CompletionRequest, LLMClient
from repro.llm.prompts import build_repair_prompt
from repro.runspec import RunSpec


class VectorizerAgent(Agent):
    """Wraps the LLM client; first attempt uses the proxy's prompt, repairs
    use the tester's feedback."""

    name = "vectorizer"

    def __init__(self, llm: LLMClient, kernel_name: str, scalar_code: str,
                 temperature: float = 1.0, *, spec: RunSpec = RunSpec()):
        self.llm = llm
        self.kernel_name = kernel_name
        self.scalar_code = scalar_code
        self.temperature = temperature
        self.spec = spec
        self.last_candidate: str | None = None

    def respond(self, message: Message, history: list[Message]) -> Message:
        if message.sender == "user_proxy":
            prompt = message.content
            feedback = ""
        else:
            feedback = message.content
            prompt = build_repair_prompt(
                self.scalar_code, self.last_candidate or "", feedback,
                target=self.spec.target,
            )
        request = CompletionRequest(
            prompt=prompt,
            kernel_name=self.kernel_name,
            scalar_code=self.scalar_code,
            num_completions=1,
            temperature=self.temperature,
            feedback=feedback,
            spec=self.spec,
        )
        completion = self.llm.complete(request)[0]
        self.last_candidate = completion.code
        return Message(
            sender=self.name,
            recipient="tester",
            content="Here is the vectorized candidate.",
            payload={
                "candidate_code": completion.code,
                "annotations": dict(completion.annotations),
            },
        )
