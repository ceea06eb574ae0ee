"""The user proxy agent: opens the dialogue with code + dependence analysis."""

from __future__ import annotations

from repro.analysis.features import analyze_kernel
from repro.errors import ReproError
from repro.llm.prompts import build_vectorization_prompt
from repro.runspec import RunSpec
from repro.vectorizer.plancache import cached_parse


class UserProxyAgent:
    """Builds the opening request for the vectorizer assistant.

    Mirrors the paper's workflow: the proxy attaches the scalar code and the
    Clang-style dependence-analysis remark explaining why the loop was not
    auto-vectorized, and instructs the assistant to eliminate the dependence.
    It speaks only first; afterwards the FSM routes between the vectorizer
    and the tester.
    """

    def __init__(self, scalar_code: str, *, spec: RunSpec = RunSpec()):
        self.scalar_code = scalar_code
        self.spec = spec

    def opening_prompt(self) -> str:
        return build_vectorization_prompt(self.scalar_code, self._dependence_report(),
                                          target=self.spec.target)

    def _dependence_report(self) -> str:
        try:
            features = analyze_kernel(cached_parse(self.scalar_code))
        except ReproError:
            return ""
        return features.dependence_summary()
