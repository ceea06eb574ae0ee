"""SyntheticLLM: a deterministic, seeded stand-in for GPT-4.

The stand-in wraps the rule-based vectorizer (:mod:`repro.vectorizer`) in a
calibrated fault model (:mod:`repro.llm.faults`) so that the rest of the
pipeline — checksum testing, the multi-agent FSM, translation validation —
sees the same *distribution of candidate programs* the paper reports for
GPT-4: mostly-correct vectorizations, a tail of subtly wrong ones, a few that
do not compile, occasional low-effort "blocked scalar" rewrites for kernels
the model cannot truly vectorize, and outright wrong attempts for the rest.

Key behavioural knobs and the paper observations they are calibrated to:

* per-completion success improves when the prompt carries dependence-analysis
  context or tester feedback (Section 4.4.1's 72 -> 96 plausible with one
  invocation under the FSM);
* harder kernels (dependences, control flow) have higher fault rates, which
  produces the saturating pass@k curve of Figure 5;
* kernels the vectorizer cannot handle still get answers — usually wrong,
  occasionally a correct but unvectorized restructuring — reproducing the
  k=1/10/100 progression of Table 2.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.analysis.features import (
    CATEGORY_DEPENDENCE,
    CATEGORY_DEPENDENCE_CF,
    CATEGORY_CONTROL_FLOW,
    CATEGORY_REDUCTION_CF,
)
from repro.cfront import ast_nodes as ast
from repro.cfront.ctypes import INT
from repro.cfront.printer import function_to_c
from repro.errors import ParseError, ReproError
from repro.llm.client import CompletionRequest, LLMClient, LLMCompletion
from repro.llm.faults import FaultProfile, applicable_faults, apply_fault
from repro.llm.prompts import has_dependence_feedback, has_tester_feedback
from repro.memo import IdentityMemo
from repro.targets import TargetISA, get_target
from repro.vectorizer.plancache import cached_parse, cached_plan, cached_vectorize
from repro.analysis.loops import find_main_loop


@dataclass
class SyntheticLLMConfig:
    """Calibration of the synthetic model."""

    seed: int = 2024
    fault_profile: FaultProfile = field(default_factory=FaultProfile)
    #: Per-completion probability of producing a *correct but unvectorized*
    #: blocked rewrite for kernels the vectorizer cannot handle (this is what
    #: lets additional kernels become plausible only at large k).  Calibrated
    #: so the hard-kernel contribution to pass@k saturates by k around 20-30,
    #: matching Figure 5's steep-rise-then-plateau shape; kernels whose main
    #: loop cannot be block-rewritten stay at zero, which keeps the plateau
    #: below 1.0 as in the paper.
    hard_kernel_success_rate: float = 0.13
    #: Among wrong attempts for hard kernels, how often the attempt does not
    #: even compile (Table 2's "Cannot compile" row).
    broken_compile_rate: float = 0.3
    #: Extra fault-rate multiplier for kernels in difficult categories.
    difficult_category_multiplier: float = 1.4


_DIFFICULT_CATEGORIES = {
    CATEGORY_DEPENDENCE,
    CATEGORY_DEPENDENCE_CF,
    CATEGORY_CONTROL_FLOW,
    CATEGORY_REDUCTION_CF,
}


class SyntheticLLM(LLMClient):
    """Deterministic GPT-4 stand-in; see the module docstring for the model."""

    def __init__(self, config: SyntheticLLMConfig | None = None):
        self.config = config or SyntheticLLMConfig()
        self._invocation_count = 0

    # -- public API ------------------------------------------------------------

    def complete(self, request: CompletionRequest) -> list[LLMCompletion]:
        self._record_invocation()
        completions: list[LLMCompletion] = []
        for index in range(request.num_completions):
            completions.append(self._one_completion(request, index))
        return completions

    # -- internals --------------------------------------------------------------

    def _rng_for(self, request: CompletionRequest, index: int) -> random.Random:
        key = f"{self.config.seed}:{request.kernel_name}:{self.invocation_count}:{index}:{request.temperature}"
        digest = hashlib.sha256(key.encode()).hexdigest()
        return random.Random(int(digest[:16], 16))

    def _kernel_difficulty(self, request: CompletionRequest, func: ast.FunctionDef) -> float:
        """A multiplier >= 1 raising fault rates for difficult kernels."""
        from repro.analysis.features import analyze_kernel

        try:
            category = analyze_kernel(func).category
        except ReproError:
            return self.config.difficult_category_multiplier
        if category in _DIFFICULT_CATEGORIES:
            return self.config.difficult_category_multiplier
        # Deterministic per-kernel jitter so pass@k varies smoothly across kernels.
        jitter = (int(hashlib.sha256(request.kernel_name.encode()).hexdigest()[:4], 16) % 100) / 400.0
        return 1.0 + jitter

    def _one_completion(self, request: CompletionRequest, index: int) -> LLMCompletion:
        rng = self._rng_for(request, index)
        target = get_target(request.spec.target)
        epilogue = request.spec.epilogue
        try:
            scalar_func = cached_parse(request.scalar_code)
        except (ParseError, ReproError):
            return LLMCompletion(code=request.scalar_code, annotations={"mode": "echo"})

        result = cached_vectorize(request.scalar_code, scalar_func, target,
                                  epilogue=epilogue)
        if result is None:
            return self._hard_kernel_completion(request, scalar_func, rng, target,
                                                epilogue=epilogue)

        correct_source = result.source
        fault_rate = self.config.fault_profile.fault_rate(
            has_dependence_feedback(request.prompt),
            has_tester_feedback(request.prompt),
        )
        fault_rate = min(0.95, fault_rate * self._kernel_difficulty(request, scalar_func))
        fault_rate *= max(0.2, min(1.5, request.temperature))
        if rng.random() >= fault_rate:
            return LLMCompletion(
                code=correct_source,
                annotations={"mode": "correct", "strategy": result.strategy},
            )
        applicable = applicable_faults(correct_source)
        kind = self.config.fault_profile.sample_kind(rng, applicable)
        if kind is None:
            return LLMCompletion(code=correct_source, annotations={"mode": "correct"})
        mutated = apply_fault(correct_source, kind, rng)
        if mutated == correct_source:
            return LLMCompletion(code=correct_source, annotations={"mode": "correct"})
        return LLMCompletion(
            code=mutated,
            annotations={"mode": "faulty", "fault": kind.value, "strategy": result.strategy},
        )

    # -- hard kernels (the vectorizer cannot handle them) --------------------------

    def _hard_kernel_completion(
        self, request: CompletionRequest, scalar_func: ast.FunctionDef,
        rng: random.Random, target: TargetISA, epilogue: str = "scalar",
    ) -> LLMCompletion:
        plan = cached_plan(request.scalar_code, scalar_func, target, epilogue=epilogue)
        reason = plan.rejection_text or "unsupported"
        success_rate = self.config.hard_kernel_success_rate
        if has_dependence_feedback(request.prompt) or has_tester_feedback(request.prompt):
            success_rate *= 2.0
        if rng.random() < success_rate:
            blocked = _BUILDER_MEMO.get_or_compute(
                scalar_func, lambda: _blocked_rewrite(scalar_func, target.lanes),
                salt=("blocked", target.lanes))
            if blocked is not None:
                return LLMCompletion(
                    code=blocked, annotations={"mode": "blocked_rewrite", "reason": reason}
                )
        if rng.random() < self.config.broken_compile_rate:
            broken = _BUILDER_MEMO.get_or_compute(
                scalar_func, lambda: _uncompilable_attempt(scalar_func, target),
                salt=("uncompilable", target.name))
            return LLMCompletion(code=broken, annotations={"mode": "broken_compile", "reason": reason})
        broken = _BUILDER_MEMO.get_or_compute(
            scalar_func, lambda: _broken_attempt(scalar_func, target.lanes),
            salt=("broken", target.lanes))
        return LLMCompletion(code=broken, annotations={"mode": "broken_wrong", "reason": reason})


def suite_llm_config(llm: LLMClient | None) -> SyntheticLLMConfig:
    """The config a suite campaign rebuilds ``llm`` from (None: the default model).

    Campaign jobs give each kernel a fresh :class:`SyntheticLLM` seeded from
    (LLM seed, kernel name), in whichever worker runs it.  No other client can
    be rebuilt that way, so any other one raises ``TypeError``; it can still
    drive one kernel at a time.
    """
    if llm is None:
        return SyntheticLLMConfig()
    if not isinstance(llm, SyntheticLLM):
        raise TypeError(f"suite runs rebuild a SyntheticLLM per kernel from its config; "
                        f"a {type(llm).__name__} can only drive one kernel at a time")
    return llm.config


# ---------------------------------------------------------------------------
# candidate builders for kernels outside the vectorizer's capability
# ---------------------------------------------------------------------------

#: The three builders below are deterministic in (scalar function, lane
#: count / target); the rng only decides *which* builder a completion uses.
#: Hard kernels are retried many times per campaign, so each rebuild was
#: pure repeat work.
_BUILDER_MEMO = IdentityMemo(512)


def _blocked_rewrite(scalar_func: ast.FunctionDef, lanes: int = 8) -> str | None:
    """A correct but unvectorized rewrite: process the loop in lane-count blocks.

    This mirrors the low-effort completions GPT-4 sometimes produces for loops
    it cannot truly vectorize — correct (so checksum-plausible) but without
    SIMD intrinsics; the performance model charges scalar costs for it.
    """
    func = ast.clone_tree(scalar_func)
    loop = find_main_loop(func)
    if loop is None or not loop.is_canonical or loop.step != 1 or loop.end_op != "<":
        return None
    iterator = loop.iterator
    block_iter = f"{iterator}b"
    inner_end = ast.BinOp(op="+", left=ast.Identifier(name=block_iter), right=ast.IntLiteral(value=lanes))
    inner_loop = ast.ForLoop(
        init=ast.Decl(var_type=INT, name=iterator, init=ast.Identifier(name=block_iter)),
        cond=ast.BinOp(op="<", left=ast.Identifier(name=iterator), right=inner_end),
        step=ast.Assign(op="+=", target=ast.Identifier(name=iterator), value=ast.IntLiteral(value=1)),
        body=ast.clone_tree(loop.node.body),
    )
    outer_end = ast.BinOp(op="-", left=ast.clone_tree(loop.end), right=ast.IntLiteral(value=lanes - 1))
    outer_loop = ast.ForLoop(
        init=ast.Decl(var_type=INT, name=block_iter, init=ast.clone_tree(loop.start)),
        cond=ast.BinOp(op=loop.end_op, left=ast.Identifier(name=block_iter), right=outer_end),
        step=ast.Assign(op="+=", target=ast.Identifier(name=block_iter), value=ast.IntLiteral(value=lanes)),
        body=ast.Block(body=[inner_loop]),
    )
    epilogue_start = ast.BinOp(
        op="-",
        left=ast.clone_tree(loop.end),
        right=ast.BinOp(
            op="%",
            left=ast.BinOp(op="-", left=ast.clone_tree(loop.end), right=ast.clone_tree(loop.start)),
            right=ast.IntLiteral(value=lanes),
        ),
    )
    epilogue = ast.ForLoop(
        init=ast.Decl(var_type=INT, name=iterator, init=epilogue_start),
        cond=ast.clone_tree(loop.node.cond),
        step=ast.clone_tree(loop.node.step),
        body=ast.clone_tree(loop.node.body),
    )
    replacement = ast.Block(body=[outer_loop, epilogue])
    ast.replace(func.body, loop.node, replacement)
    return function_to_c(func, include_header=True)


def _broken_attempt(scalar_func: ast.FunctionDef, lanes: int = 8) -> str:
    """A wrong attempt: bump the loop step to the lane count without processing
    the block."""
    func = ast.clone_tree(scalar_func)
    loop = find_main_loop(func)
    if loop is not None and loop.step_expr is not None:
        new_step = ast.Assign(
            op="+=", target=ast.Identifier(name=loop.iterator or "i"),
            value=ast.IntLiteral(value=lanes),
        )
        loop.node.step = new_step
    return function_to_c(func, include_header=True)


def _uncompilable_attempt(scalar_func: ast.FunctionDef,
                          target: TargetISA | None = None) -> str:
    """A wrong attempt that also fails to compile (an invented intrinsic).

    The bogus gather spelling is target data: it follows the ISA's own
    naming style (so the candidate *looks* plausible) without being a name
    any registered target actually emits.
    """
    isa = get_target(target)
    source = function_to_c(scalar_func, include_header=True)
    lines = source.splitlines()
    insertion = (f"    {isa.vector_type} vtmp = "
                 f"{isa.bogus_gather_spelling}(a, {isa.lanes});")
    for position, line in enumerate(lines):
        if line.strip().startswith("for ("):
            lines.insert(position + 2, insertion)
            break
    else:
        lines.append(insertion)
    return "\n".join(lines) + "\n"
