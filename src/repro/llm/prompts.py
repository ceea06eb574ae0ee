"""Prompt construction for the vectorizer agent.

The paper's user proxy agent sends the scalar code together with Clang's
dependence-analysis remark explaining why the loop was not auto-vectorized,
and on later attempts appends checksum-testing feedback.  These builders
produce the same structure for any target ISA (the paper's experiments use
AVX2, the default); the synthetic LLM inspects the presence of the
dependence/feedback sections to modulate its fault rates (which is the
mechanism by which the multi-agent FSM improves single-invocation success in
our reproduction, matching Section 4.4.1).
"""

from __future__ import annotations

from repro.targets import TargetISA, get_target

DEPENDENCE_SECTION_HEADER = "Dependence analysis from the compiler:"
FEEDBACK_SECTION_HEADER = "Feedback from checksum-based testing:"

_LANE_WORDS = {4: "four", 8: "eight", 16: "sixteen"}


def _lane_phrase(isa: TargetISA) -> str:
    return _LANE_WORDS.get(isa.lanes, str(isa.lanes))


def build_vectorization_prompt(
    scalar_code: str,
    dependence_report: str = "",
    target: "TargetISA | str | None" = None,
) -> str:
    """The initial prompt asking for a vectorized program for one target ISA."""
    isa = get_target(target)
    lines = [
        f"You are an expert in SIMD programming with {isa.display_name} compiler intrinsics.",
        "Rewrite the following scalar C function into an equivalent vectorized C",
        f"function using {isa.display_name} intrinsics (process {_lane_phrase(isa)} 32-bit integers per",
        "iteration) and keep the function signature unchanged. Handle the loop",
        "remainder with a scalar epilogue loop.",
        "",
        "Input scalar C code:",
        "```c",
        scalar_code.strip(),
        "```",
    ]
    if dependence_report:
        lines += [
            "",
            DEPENDENCE_SECTION_HEADER,
            dependence_report.strip(),
            "",
            "Eliminate or work around the reported dependences so the loop can be",
            "vectorized safely.",
        ]
    return "\n".join(lines)


def build_repair_prompt(
    scalar_code: str,
    previous_attempt: str,
    feedback: str,
    target: "TargetISA | str | None" = None,
) -> str:
    """The re-vectorization prompt carrying tester feedback (repair loop)."""
    isa = get_target(target)
    lines = [
        f"The previous {isa.display_name} vectorization attempt was not equivalent to the",
        "scalar code. Produce a corrected vectorized C function.",
        "",
        "Original scalar C code:",
        "```c",
        scalar_code.strip(),
        "```",
        "",
        "Previous (incorrect) vectorized attempt:",
        "```c",
        previous_attempt.strip(),
        "```",
        "",
        FEEDBACK_SECTION_HEADER,
        feedback.strip(),
    ]
    return "\n".join(lines)


def has_dependence_feedback(prompt: str) -> bool:
    return DEPENDENCE_SECTION_HEADER in prompt


def has_tester_feedback(prompt: str) -> bool:
    return FEEDBACK_SECTION_HEADER in prompt
