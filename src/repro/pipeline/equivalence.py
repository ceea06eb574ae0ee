"""Algorithm 1: the staged equivalence-checking pipeline.

``check_equivalence(S, V)``:

1. checksum-based testing — a refuted or uncompilable candidate stops here;
2. ``checkWithAlive2Unroll`` — out-of-the-box bounded translation validation;
3. ``checkWithCUnroll`` — C-level unrolling of the scalar program (Section 3.2);
4. ``checkWithSpatialSplitting`` — per-index queries for dependence-free
   kernels (Section 3.3).

Each stage only sees the cases the previous stages left inconclusive, exactly
as in the paper's Table 3, and the report records which stage settled the
candidate.  Checksum testing and every verification stage answer in the one
:class:`~repro.verdict.Verdict` vocabulary, so the deciding stage's verdict
is the report's verdict; only a candidate that checksum testing cannot
compile is mapped, to ``NOT_EQUIVALENT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alive.verifier import AliveVerifier
from repro.interp.checksum import ChecksumReport, checksum_testing
from repro.verdict import Verdict


@dataclass
class PipelineReport:
    """Result of running Algorithm 1 on one (scalar, vectorized) pair."""

    verdict: Verdict
    deciding_stage: str
    checksum: ChecksumReport | None = None
    stage_outcomes: dict[str, str] = field(default_factory=dict)
    detail: str = ""


class EquivalencePipeline:
    """Runs Algorithm 1; construct once and reuse across kernels."""

    def __init__(self):
        self.verifier = AliveVerifier()

    def check_equivalence(self, scalar_code: str, vectorized_code: str,
                          skip_checksum: bool = False) -> PipelineReport:
        """Run the staged check of Algorithm 1 on one candidate."""
        stage_outcomes: dict[str, str] = {}

        checksum_report = None
        if not skip_checksum:
            checksum_report = checksum_testing(scalar_code, vectorized_code)
            stage_outcomes["checksum"] = checksum_report.outcome.value
            if checksum_report.outcome is Verdict.CANNOT_COMPILE:
                return PipelineReport(
                    verdict=Verdict.NOT_EQUIVALENT, deciding_stage="checksum",
                    checksum=checksum_report, stage_outcomes=stage_outcomes,
                    detail=checksum_report.compile_error or "candidate does not compile",
                )
            if checksum_report.outcome is Verdict.NOT_EQUIVALENT:
                return PipelineReport(
                    verdict=Verdict.NOT_EQUIVALENT, deciding_stage="checksum",
                    checksum=checksum_report, stage_outcomes=stage_outcomes,
                    detail="checksum testing found an output mismatch",
                )

        stages = [
            ("alive-unroll", self.verifier.check_with_alive_unroll),
            ("c-unroll", self.verifier.check_with_c_unroll),
            ("spatial-splitting", self.verifier.check_with_spatial_splitting),
        ]
        detail = ""
        for name, stage in stages:
            result = stage(scalar_code, vectorized_code)
            stage_outcomes[name] = result.outcome.value
            detail = result.detail or result.method
            if result.outcome is not Verdict.INCONCLUSIVE:
                return PipelineReport(
                    verdict=result.outcome, deciding_stage=name,
                    checksum=checksum_report, stage_outcomes=stage_outcomes, detail=detail,
                )
        return PipelineReport(
            verdict=Verdict.INCONCLUSIVE, deciding_stage="none",
            checksum=checksum_report, stage_outcomes=stage_outcomes, detail=detail,
        )
