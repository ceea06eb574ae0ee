"""Performance model: instruction cost tables and the cycle simulator.

Wall-clock measurement on AVX2 hardware is replaced by an instruction-level
cycle estimate over the operations the interpreter actually executed.  The
model only needs to be faithful *relatively*: who wins and by roughly what
factor, which is determined by (a) whether each baseline compiler vectorizes
the loop at all and (b) the instruction mix of the vector body.

This package models the *vectorized code's* speed.  The pipeline's own
speed is measured from outside the process by ``perfbench/``
(``python3 perfbench/run.py --trace 1`` gives per-layer self times).
"""

from __future__ import annotations

from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.simulator import (
    KernelPerformance,
    SpeedupRecord,
    estimate_cycles,
    measure_kernel,
    speedups_for_kernel,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "KernelPerformance",
    "SpeedupRecord",
    "estimate_cycles",
    "measure_kernel",
    "speedups_for_kernel",
]
