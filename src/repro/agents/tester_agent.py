"""The compiler tester assistant agent: static vetting + checksum testing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.interp.checksum import ChecksumReport, checksum_testing
from repro.runspec import RunSpec
from repro.verdict import Verdict

if TYPE_CHECKING:
    from repro.staticcheck import StaticReport


@dataclass(frozen=True)
class TesterReply:
    """The tester's answer to one candidate."""

    #: plausible, not_equivalent, cannot_compile or static_reject.
    outcome: Verdict
    #: What the vectorizer repairs from: checksum testing's report, or the
    #: vetter's diagnostics when screen mode rejected the candidate.
    feedback: str
    #: Checksum testing's report (None: screen mode rejected the candidate
    #: before it ran).
    report: ChecksumReport | None
    #: The vetter's report (None: vetting is off).
    static_report: StaticReport | None


class CompilerTesterAgent:
    """Vets the candidate statically, then runs checksum-based testing.

    On a mismatch (or a compile failure) the reply carries enough detail —
    example inputs, expected and actual output arrays — for the vectorizer to
    attempt a repair, matching the s453 walkthrough of Section 4.4.2.

    ``spec.static_check`` selects what the rule-based linter contributes:

    * ``"off"`` — not run at all;
    * ``"advisory"`` (default) — the :class:`~repro.staticcheck.StaticReport`
      rides along in the reply, but acceptance is checksum testing's alone,
      bit-identical to the pre-linter pipeline;
    * ``"screen"`` — a candidate with any error-severity diagnostic is
      rejected *before* any execution, with the diagnostics as the repair
      feedback; clean candidates proceed to checksum testing as usual.
    """

    def __init__(self, scalar_code: str, *, spec: RunSpec = RunSpec()):
        self.scalar_code = scalar_code
        self.spec = spec

    def test(self, candidate: str) -> TesterReply:
        static_report = None
        if self.spec.static_check != "off":
            from repro.staticcheck import check_candidate

            static_report = check_candidate(
                candidate, target=self.spec.target, epilogue=self.spec.epilogue,
                scalar_source=self.scalar_code)
            if self.spec.static_check == "screen" and static_report.has_errors:
                return TesterReply(Verdict.STATIC_REJECT, static_report.feedback_text(),
                                   None, static_report)
        report = checksum_testing(self.scalar_code, candidate)
        return TesterReply(report.outcome, report.feedback_text(), report, static_report)
