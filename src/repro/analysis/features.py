"""Whole-kernel feature extraction and Figure-6 category assignment.

The paper's Figure 6 groups the verified TSVC kernels into six categories:
Control Flow, Dependence, Dependence+Control Flow, Naïvely Vectorizable,
Reduction and Reduction+Control Flow.  :func:`analyze_kernel` derives those
categories from the dependence report so the performance benchmark can group
its output exactly the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.accesses import ArrayAccess, collect_accesses
from repro.analysis.dependence import DependenceReport, analyze_dependences
from repro.analysis.loops import LoopInfo, LoopNest, find_loops, find_main_loop
from repro.cfront import ast_nodes as ast
from repro.memo import IdentityMemo

#: Figure 6 category names, in the order the paper lists them.
CATEGORY_CONTROL_FLOW = "Control Flow"
CATEGORY_DEPENDENCE = "Dependence"
CATEGORY_DEPENDENCE_CF = "Dependence+Control Flow"
CATEGORY_NAIVE = "Naively Vectorizable"
CATEGORY_REDUCTION = "Reduction"
CATEGORY_REDUCTION_CF = "Reduction+Control Flow"

ALL_CATEGORIES = [
    CATEGORY_CONTROL_FLOW,
    CATEGORY_DEPENDENCE,
    CATEGORY_DEPENDENCE_CF,
    CATEGORY_NAIVE,
    CATEGORY_REDUCTION,
    CATEGORY_REDUCTION_CF,
]


@dataclass
class KernelFeatures:
    """Everything the rest of the pipeline wants to know about one kernel."""

    function: ast.FunctionDef
    loop_nest: LoopNest
    main_loop: LoopInfo | None
    accesses: list[ArrayAccess] = field(default_factory=list)
    dependence: DependenceReport = field(default_factory=DependenceReport)
    category: str = CATEGORY_NAIVE

    @property
    def iterator(self) -> str | None:
        return self.main_loop.iterator if self.main_loop else None

    def dependence_summary(self) -> str:
        """Clang-style text used in the vectorizer agent's prompt."""
        iterator = self.iterator or "i"
        return self.dependence.clang_style_remark(iterator)


def categorize(report: DependenceReport) -> str:
    """Assign the Figure-6 category from a dependence report."""
    has_cf = report.has_control_flow or report.has_goto
    has_reduction = bool(report.reductions)
    has_dependence = report.has_loop_carried_dependence or bool(report.inductions)
    if has_reduction:
        return CATEGORY_REDUCTION_CF if has_cf else CATEGORY_REDUCTION
    if has_dependence and has_cf:
        return CATEGORY_DEPENDENCE_CF
    if has_dependence:
        return CATEGORY_DEPENDENCE
    if has_cf:
        return CATEGORY_CONTROL_FLOW
    return CATEGORY_NAIVE


#: Feature analysis is pure in the tree, and with parse results cache-shared
#: the same function object is re-analyzed once per completion (difficulty
#: scoring) and once per dialogue (the dependence report).
_FEATURE_MEMO = IdentityMemo(512)


def analyze_kernel(func: ast.FunctionDef) -> KernelFeatures:
    """Run loop discovery, access collection and dependence analysis on ``func``."""
    return _FEATURE_MEMO.get_or_compute(func, lambda: _analyze_kernel_uncached(func))


def _analyze_kernel_uncached(func: ast.FunctionDef) -> KernelFeatures:
    loop_nest = find_loops(func)
    main_loop = find_main_loop(func)
    features = KernelFeatures(function=func, loop_nest=loop_nest, main_loop=main_loop)
    if main_loop is None:
        return features
    features.accesses = collect_accesses(main_loop.body, main_loop.iterator)
    features.dependence = analyze_dependences(features.accesses, main_loop.body, main_loop.iterator)
    features.category = categorize(features.dependence)
    return features
