"""Throughput metrics for suite-scale campaign runs.

The ROADMAP's scaling work is steered by one number: how many kernels per
second the pipeline sustains end to end.  The helpers here turn raw
(completed, wall-clock) measurements into that rate and into simple
projections ("how long would the full TSVC suite take at this rate?") used
by the campaign summaries.
"""

from __future__ import annotations

from dataclasses import dataclass


def kernels_per_second(completed: int, wall_clock_seconds: float) -> float:
    """Sustained throughput of a campaign; 0.0 for an empty or instant run."""
    if completed <= 0 or wall_clock_seconds <= 0:
        return 0.0
    return completed / wall_clock_seconds


@dataclass(frozen=True)
class ThroughputReport:
    """Throughput of one campaign run, split by where results came from."""

    total_kernels: int
    executed_kernels: int
    wall_clock_seconds: float

    @property
    def effective_rate(self) -> float:
        """Kernels per second including cached/resumed results."""
        return kernels_per_second(self.total_kernels, self.wall_clock_seconds)

    @property
    def executed_rate(self) -> float:
        """Kernels per second over freshly executed work only."""
        return kernels_per_second(self.executed_kernels, self.wall_clock_seconds)
