"""The vectorizer assistant agent: consults the LLM for candidate code."""

from __future__ import annotations

from repro.llm.client import CompletionRequest, LLMClient, LLMCompletion
from repro.llm.prompts import build_repair_prompt
from repro.runspec import RunSpec


class VectorizerAgent:
    """Wraps the LLM client: one completion per turn.

    The first attempt sends the user proxy's prompt; a repair sends the
    previous candidate with the tester's feedback.
    """

    def __init__(self, llm: LLMClient, kernel_name: str, scalar_code: str, *,
                 spec: RunSpec = RunSpec()):
        self.llm = llm
        self.kernel_name = kernel_name
        self.scalar_code = scalar_code
        self.spec = spec

    def propose(self, prompt: str) -> LLMCompletion:
        """One candidate for ``prompt``: the user proxy's, or a repair prompt."""
        request = CompletionRequest(prompt=prompt, kernel_name=self.kernel_name,
                                    scalar_code=self.scalar_code, spec=self.spec)
        return self.llm.complete(request)[0]

    def repair(self, previous: str, feedback: str) -> LLMCompletion:
        """A corrected candidate, asked for with the ``previous`` one and the
        tester's ``feedback`` on it."""
        return self.propose(build_repair_prompt(self.scalar_code, previous, feedback,
                                                target=self.spec.target))
