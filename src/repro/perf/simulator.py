"""The runtime simulator: cycle estimates and speedups against the baselines.

For the LLM-generated candidate the interpreter executes the actual vector
code and the target's cost model prices the executed instruction mix.  For
each baseline compiler the scalar kernel is executed once, and the
baseline's :class:`~repro.compilers.base.CompilerDecision` determines
whether its cycles are charged at scalar cost or scaled by the target's
lane count times the baseline's codegen-efficiency factor.  Speedup is then
the ratio of baseline cycles to LLM cycles — the quantity plotted in the
paper's Figure 1(c) and Figure 6.  Passing ``target`` prices both sides
with that ISA's tables, which is how per-width speedups are compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.features import analyze_kernel
from repro.cfront import ast_nodes as ast
from repro.compilers.base import CompilerDecision, SimulatedCompiler
from repro.compilers.suites import all_compilers
from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_vector
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel, cost_model_for
from repro.targets import DEFAULT_TARGET, TargetISA, get_target
from repro.vectorizer.plancache import cached_parse


@dataclass
class SpeedupRecord:
    """Speedup of the LLM-vectorized code over one baseline compiler."""

    kernel: str
    compiler: str
    baseline_cycles: float
    llm_cycles: float
    baseline_vectorized: bool
    baseline_reason: str

    @property
    def speedup(self) -> float:
        if self.llm_cycles <= 0:
            return 0.0
        return self.baseline_cycles / self.llm_cycles


@dataclass
class KernelPerformance:
    """Full performance record of one kernel: LLM cycles plus per-baseline speedups."""

    kernel: str
    category: str
    llm_cycles: float
    scalar_cycles: float
    records: list[SpeedupRecord] = field(default_factory=list)

    def speedup_over(self, compiler_name: str) -> float:
        for record in self.records:
            if record.compiler.lower() == compiler_name.lower():
                return record.speedup
        raise KeyError(f"no speedup record for {compiler_name!r}")


def _execute_for_counts(func: ast.FunctionDef, n: int, seed: int):
    spec = InputSpec.from_function(func)
    vector = make_test_vector(spec, n, random.Random(seed))
    return run_function(func, vector.arrays, vector.scalars, max_steps=5_000_000)


def estimate_cycles(code: str | ast.FunctionDef, n: int = 256, seed: int = 11,
                    cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Estimated cycles of one execution of ``code`` with trip count ``n``."""
    func = code if isinstance(code, ast.FunctionDef) else cached_parse(code)
    result = _execute_for_counts(func, n, seed)
    return cost_model.cycles_for(result.op_counts)


def baseline_cycles(scalar_cycles: float, decision: CompilerDecision,
                    trip_count: int, scalar_efficiency: float = 1.0,
                    vector_width: int = DEFAULT_TARGET.lanes) -> float:
    """Cycles for a baseline compiler, given the scalar-execution estimate.

    ``scalar_efficiency`` captures how much faster than the naive estimate the
    compiler's own (scalar or vector) code generation is; it applies to both
    decisions so a compiler with strong scalar optimization (ICC) remains hard
    to beat even when it refuses to vectorize.
    """
    if not decision.vectorized or decision.efficiency <= 0:
        return scalar_cycles / scalar_efficiency
    # The compiler vectorizes the loop: the loop body collapses by the vector
    # width scaled by this compiler's codegen efficiency; loop-control and
    # call overhead (roughly proportional to the trip count) stays scalar.
    overhead = DEFAULT_COST_MODEL.invocation_overhead + trip_count * 0.25
    body = max(scalar_cycles - overhead, 0.0)
    return (overhead + body / (vector_width * decision.efficiency)) / scalar_efficiency


def measure_kernel(
    kernel_name: str,
    scalar_code: str,
    llm_code: str,
    n: int = 256,
    seed: int = 11,
    compilers: list[SimulatedCompiler] | None = None,
    cost_model: CostModel | None = None,
    target: "TargetISA | str | None" = None,
) -> KernelPerformance:
    """Measure LLM-vectorized ``llm_code`` against every baseline for one kernel.

    ``target`` selects the ISA cost tables and the lane count used to scale
    vectorizing baselines; an explicit ``cost_model`` overrides the tables.
    """
    isa = get_target(target)
    if cost_model is None:
        cost_model = cost_model_for(isa)
    scalar_func = cached_parse(scalar_code)
    features = analyze_kernel(scalar_func)
    scalar_cycles = estimate_cycles(scalar_func, n=n, seed=seed, cost_model=cost_model)
    llm_cycles = estimate_cycles(llm_code, n=n, seed=seed, cost_model=cost_model)

    performance = KernelPerformance(
        kernel=kernel_name,
        category=features.category,
        llm_cycles=llm_cycles,
        scalar_cycles=scalar_cycles,
    )
    for compiler in compilers or all_compilers():
        decision = compiler.decide(features)
        cycles = baseline_cycles(scalar_cycles, decision, trip_count=n,
                                 scalar_efficiency=compiler.scalar_efficiency,
                                 vector_width=isa.lanes)
        performance.records.append(
            SpeedupRecord(
                kernel=kernel_name,
                compiler=compiler.name,
                baseline_cycles=cycles,
                llm_cycles=llm_cycles,
                baseline_vectorized=decision.vectorized,
                baseline_reason=decision.reason,
            )
        )
    return performance


def speedups_for_kernel(performance: KernelPerformance) -> dict[str, float]:
    """Convenience: compiler name -> speedup mapping."""
    return {record.compiler: record.speedup for record in performance.records}
