"""Content-addressed parse + plan cache for the verification hot path.

The campaign layer's result store (:mod:`repro.pipeline.campaign`)
deduplicates whole per-kernel *results*; this module is its in-process
counterpart one level down: N candidates × M attempts × K pipeline stages that share one
piece of source text reuse a single parse, and every completion the
synthetic LLM produces for one (kernel, target, epilogue) triple reuses a
single vectorization plan + generated function.  Profiling showed repeated
parsing alone accounted for half the serial campaign's wall clock — the FSM
re-parses the scalar kernel per completion, the tester per attempt, and the
verifier per stage.

Sharing parsed ASTs across consumers is safe by construction: every AST
mutator in the tree (``normalize_body``, ``unroll_scalar_function``,
``generate_vectorized_function``, the synthetic LLM's candidate builders)
deep-copies before mutating, and the interpreter and symbolic executor are
read-only walkers.

:func:`cached_parse` is the one place in the package that parses C source:
every AST a consumer sees is the single parse of the exact text it holds,
so the tester, vetter and verifier check what the record reports and
diagnostics keep their ``line:col`` anchors.

Caches are process-local (each campaign worker builds its own)
:class:`~repro.memo.Memo` instances keyed on content SHAs salted with the
target name and epilogue strategy; :func:`clear_caches` resets them and the
hit/miss counters (tests use it to measure deterministically).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cfront.cparser import parse_function
from repro.memo import Memo
from repro.targets import TargetISA, get_target

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cfront import ast_nodes as ast
    from repro.vectorizer.codegen import VectorizationResult
    from repro.vectorizer.planner import VectorizationPlan


@dataclass
class PlanCacheStats:
    """Hit/miss counters for the parse and vectorize caches."""

    parse_hits: int = 0
    parse_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    vectorize_hits: int = 0
    vectorize_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "vectorize_hits": self.vectorize_hits,
            "vectorize_misses": self.vectorize_misses,
        }


stats = PlanCacheStats()

#: Source SHA -> its parsed function, or the exception parsing raised.
_PARSE_CACHE = Memo(1024)
_PLAN_CACHE = Memo(1024)
_VECTORIZE_CACHE = Memo(1024)


def source_key(source: str) -> str:
    """The content address of one piece of C source text."""
    return hashlib.sha256(source.encode()).hexdigest()


def plan_fingerprint(source: str, target: "TargetISA | str | None",
                     epilogue: str = "scalar") -> tuple[str, str, str]:
    """The vectorize-cache key: source SHA salted with target and epilogue.

    The salt mirrors the campaign cache, whose fingerprints cover the run
    spec: two targets (or two epilogue strategies) planning the same kernel
    source must never share an entry.
    """
    return (source_key(source), get_target(target).name, epilogue)


def clear_caches() -> None:
    """Drop every cached parse/plan and reset the hit/miss counters."""
    _PARSE_CACHE.clear()
    _PLAN_CACHE.clear()
    _VECTORIZE_CACHE.clear()
    stats.parse_hits = stats.parse_misses = 0
    stats.plan_hits = stats.plan_misses = 0
    stats.vectorize_hits = stats.vectorize_misses = 0


def cached_parse(source: str) -> "ast.FunctionDef":
    """Parse ``source`` at most once per process; returns a *shared* AST.

    Callers must treat the result as read-only (or deep-copy before
    mutating) — which every existing consumer already does, see the module
    docstring.  Parse *failures* are cached too (the same uncompilable
    candidate is re-tested on every retry of a hard kernel); the original
    exception instance is re-raised, so messages stay identical.
    """
    key = source_key(source)
    parsed = _PARSE_CACHE.get(key)
    if parsed is not None:
        stats.parse_hits += 1
        if isinstance(parsed, Exception):
            raise parsed
        return parsed
    stats.parse_misses += 1
    try:
        func = parse_function(source)
    except Exception as exc:
        _PARSE_CACHE.put(key, exc)
        raise
    return _PARSE_CACHE.put(key, func)


def cached_plan(source: str, func: "ast.FunctionDef | None" = None,
                target: "TargetISA | str | None" = None,
                epilogue: str = "scalar") -> "VectorizationPlan":
    """Plan at most once per (source, target, epilogue) triple.

    Rejection plans are the hot case: the synthetic LLM re-plans a hard
    kernel on *every* completion just to quote the rejection text.  The
    shared :class:`~repro.vectorizer.planner.VectorizationPlan` must be
    treated as read-only, which every consumer already does.
    """
    from repro.vectorizer.planner import plan_vectorization

    key = plan_fingerprint(source, target, epilogue)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        stats.plan_hits += 1
        return plan
    stats.plan_misses += 1
    if func is None:
        func = cached_parse(source)
    return _PLAN_CACHE.put(
        key, plan_vectorization(func, get_target(target), epilogue=epilogue))


def cached_vectorize(source: str, func: "ast.FunctionDef | None" = None,
                     target: "TargetISA | str | None" = None,
                     epilogue: str = "scalar") -> "VectorizationResult | None":
    """Plan + generate at most once per (source, target, epilogue) triple.

    ``func`` is the already-parsed AST of ``source`` when the caller has one
    (it must be the :func:`cached_parse` result for that source); omitted, it
    is resolved through the parse cache.  Returns the shared
    :class:`~repro.vectorizer.codegen.VectorizationResult` — or ``None``,
    which is cached too: an infeasible (kernel, target, epilogue) stays
    infeasible, and hard kernels are re-planned per completion otherwise.
    """
    # Imported lazily so low-level consumers (the checksum tester, the
    # verifier) can import the parse cache without pulling the vectorizer in.
    from repro.vectorizer.codegen import vectorize_kernel

    key = plan_fingerprint(source, target, epilogue)
    if key in _VECTORIZE_CACHE:
        stats.vectorize_hits += 1
        return _VECTORIZE_CACHE[key]
    stats.vectorize_misses += 1
    if func is None:
        func = cached_parse(source)
    return _VECTORIZE_CACHE.put(
        key, vectorize_kernel(func, get_target(target), epilogue=epilogue))
