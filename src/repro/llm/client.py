"""The LLM client interface used by LLM-Vectorizer.

The pipeline never talks to a model directly; it sends a
:class:`CompletionRequest` (a natural-language prompt that embeds the scalar
C code and, optionally, dependence-analysis or testing feedback) to an
:class:`LLMClient` and receives :class:`LLMCompletion` objects holding C
source text.  This mirrors the paper's setup (GPT-4, temperature 1.0,
``n`` code completions per request) while allowing the offline synthetic
stand-in and any future real client to be swapped freely.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.runspec import RunSpec


@dataclass(frozen=True)
class CompletionRequest:
    """One request for vectorized-code completions."""

    prompt: str
    kernel_name: str
    scalar_code: str
    num_completions: int = 1
    temperature: float = 1.0
    #: The run's settings; the completion targets ``spec.target`` and uses
    #: the ``spec.epilogue`` tail strategy.
    spec: RunSpec = RunSpec()


@dataclass(frozen=True)
class LLMCompletion:
    """One code completion returned by the model."""

    code: str
    #: Metadata for experiment bookkeeping (the synthetic model records which
    #: faults, if any, were injected).  A real client leaves this empty.
    annotations: dict = field(default_factory=dict)


class LLMClient(abc.ABC):
    """Abstract client: prompt in, ``num_completions`` completions out."""

    #: API version string, mirroring the paper's experimental setup section.
    api_version: str = "2023-08-01-preview"

    @abc.abstractmethod
    def complete(self, request: CompletionRequest) -> list[LLMCompletion]:
        """Return ``request.num_completions`` candidate programs."""

    @property
    def invocation_count(self) -> int:
        """Number of ``complete`` calls made so far (for RQ4 accounting)."""
        return getattr(self, "_invocation_count", 0)

    def _record_invocation(self) -> None:
        self._invocation_count = self.invocation_count + 1
