"""The compiler tester assistant agent: static vetting + checksum testing."""

from __future__ import annotations

from repro.agents.base import Agent, Message
from repro.interp.checksum import checksum_testing
from repro.runspec import RunSpec
from repro.verdict import Verdict


class CompilerTesterAgent(Agent):
    """Vets the candidate statically, then runs checksum-based testing.

    On a mismatch (or a compile failure) the reply carries enough detail —
    example inputs, expected and actual output arrays — for the vectorizer to
    attempt a repair, matching the s453 walkthrough of Section 4.4.2.

    ``spec.static_check`` selects what the rule-based linter contributes:

    * ``"off"`` — not run at all;
    * ``"advisory"`` (default) — the :class:`~repro.staticcheck.StaticReport`
      rides along in the reply payload, but acceptance is checksum testing's
      alone, bit-identical to the pre-linter pipeline;
    * ``"screen"`` — a candidate with any error-severity diagnostic is
      rejected *before* any execution, with the diagnostics as the repair
      feedback; clean candidates proceed to checksum testing as usual.
    """

    name = "tester"

    def __init__(self, scalar_code: str, seed: int = 0,
                 trip_counts: list[int] | None = None, *,
                 spec: RunSpec = RunSpec()):
        self.scalar_code = scalar_code
        self.seed = seed
        self.trip_counts = trip_counts
        self.spec = spec

    def respond(self, message: Message, history: list[Message]) -> Message:
        candidate = message.payload.get("candidate_code", "")
        static_report = None
        if self.spec.static_check != "off":
            from repro.staticcheck import check_candidate

            static_report = check_candidate(
                candidate, target=self.spec.target, epilogue=self.spec.epilogue,
                scalar_source=self.scalar_code)
            if self.spec.static_check == "screen" and static_report.has_errors:
                return Message(
                    sender=self.name,
                    recipient="vectorizer",
                    content=static_report.feedback_text(),
                    payload={
                        "outcome": Verdict.STATIC_REJECT,
                        "accepted": False,
                        "candidate_code": candidate,
                        "static_report": static_report,
                    },
                )
        report = checksum_testing(
            self.scalar_code, candidate, seed=self.seed, trip_counts=self.trip_counts
        )
        payload = {
            "outcome": report.outcome,
            "accepted": report.outcome is Verdict.PLAUSIBLE,
            "candidate_code": candidate,
            "report": report,
        }
        if static_report is not None:
            payload["static_report"] = static_report
        return Message(
            sender=self.name,
            recipient="vectorizer",
            content=report.feedback_text(),
            payload=payload,
        )
