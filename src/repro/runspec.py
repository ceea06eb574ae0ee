"""The settings one run is made with: target ISA, epilogue, dtype, vetting.

A campaign sets these four values once, on
:class:`~repro.pipeline.campaign.CampaignConfig`, which exposes them as
``CampaignConfig.spec``.  Every layer below takes that one frozen object
and reads it unchanged: the vectorize job's payload,
``LLMVectorizer.vectorize(kernel, spec)``, ``VectorizationFSM(..., spec=)``,
the three agents and each :class:`~repro.llm.client.CompletionRequest`.
No layer holds its own copy of a setting, so no layer has a precedence
rule to apply.  Single-kernel and FSM use passes ``spec=RunSpec(...)``
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lanetypes import get_lane_type
from repro.targets import get_target
from repro.vectorizer.planner import EPILOGUE_STRATEGIES

#: Static candidate vetting modes: ``"off"`` skips the linter,
#: ``"advisory"`` attaches its reports without changing acceptance, and
#: ``"screen"`` rejects error-severity candidates before any execution.
STATIC_CHECK_MODES = ("off", "advisory", "screen")


@dataclass(frozen=True)
class RunSpec:
    """Target, epilogue, element type and static-check mode of one run.

    Construction canonicalises aliases (``"sve"`` -> ``"sve256"``,
    ``"int64_t"`` -> ``"int64"``) and raises ``ValueError`` on an unknown
    value, so a misspelt setting fails before any kernel runs.
    """

    target: str = "avx2"
    epilogue: str = "scalar"
    dtype: str = "int32"
    static_check: str = "advisory"

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", get_target(self.target).name)
        object.__setattr__(self, "dtype", get_lane_type(self.dtype).name)
        if self.epilogue not in EPILOGUE_STRATEGIES:
            raise ValueError(f"unknown epilogue strategy {self.epilogue!r}; "
                             f"expected one of {EPILOGUE_STRATEGIES}")
        if self.static_check not in STATIC_CHECK_MODES:
            raise ValueError(f"unknown static_check mode {self.static_check!r}; "
                             f"expected one of {STATIC_CHECK_MODES}")
