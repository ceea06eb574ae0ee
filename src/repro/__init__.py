"""repro — reproduction of "LLM-Vectorizer: LLM-Based Verified Loop Vectorizer" (CGO 2025).

The package re-implements the complete pipeline from the paper in pure
Python: a C-subset frontend and interpreter with the intrinsic semantics of
each target ISA (AVX2 is the paper's), a checksum-based tester, a
synthetic-LLM vectorizer behind the paper's LLM client interface, the
multi-agent finite-state-machine orchestration, a bounded
translation-validation stack standing in for Alive2/Z3 (symbolic execution
of the C AST into bitvector terms, decided by normalization, concrete
refutation or a bit-blasting SAT solver), simulated GCC/Clang/ICC
auto-vectorizing baselines with a cycle cost model, and the TSVC benchmark
suite.

``repro.__all__`` is the stable public surface: everything listed here keeps
its name and import path across releases, and anything not listed is
internal.  Names resolve lazily (PEP 562), so ``import repro`` stays cheap.

See README.md for the package layout and ``benchmarks/`` for the
table-by-table reproduction of the paper's experiments.
"""

from __future__ import annotations

__version__ = "1.1.0"

#: name -> defining submodule for every stable public symbol.
_PUBLIC_API = {
    # Pipeline: single-kernel verification and campaign orchestration.
    "EquivalencePipeline": "repro.pipeline",
    "LLMVectorizer": "repro.pipeline",
    "LLMVectorizerConfig": "repro.pipeline",
    "CampaignConfig": "repro.pipeline",
    "CampaignRunner": "repro.pipeline",
    "CampaignReport": "repro.pipeline",
    "CampaignSummary": "repro.pipeline",
    "Verdict": "repro.verdict",
    "merge_stores": "repro.pipeline",
    "report_from_store": "repro.pipeline",
    # Incremental re-verification and store hygiene.
    "plan_reverify": "repro.pipeline",
    "reverify": "repro.pipeline",
    "IncrementalPlan": "repro.pipeline",
    "compact_store": "repro.pipeline",
    "CompactionStats": "repro.pipeline",
    # Vectorizer: deterministic planning/codegen and the epilogue contract.
    "vectorize_kernel": "repro.vectorizer",
    "plan_vectorization": "repro.vectorizer",
    "VectorizationPlan": "repro.vectorizer",
    "EPILOGUE_STRATEGIES": "repro.vectorizer",
    # Run settings: the one object every layer below a campaign takes.
    "RunSpec": "repro.runspec",
    # Plan cache: content-addressed parse/plan/codegen reuse.
    "plan_cache_stats": "repro.vectorizer.plancache",
    "clear_plan_caches": "repro.vectorizer.plancache",
    "plan_fingerprint": "repro.vectorizer.plancache",
    # Targets: ISA descriptions and intrinsic spelling resolution.
    "TargetISA": "repro.targets",
    "get_target": "repro.targets",
    "ALL_TARGETS": "repro.targets",
    "DEFAULT_TARGET": "repro.targets",
    # Testing and verification stages.
    "checksum_testing": "repro.interp.checksum",
    "AliveVerifier": "repro.alive.verifier",
    # Benchmark suite and reporting.
    "load_kernel": "repro.tsvc",
    "load_suite": "repro.tsvc",
    "all_kernel_names": "repro.tsvc",
    "render_campaign_report": "repro.reporting",
    "render_campaign_summary": "repro.reporting",
    "render_table": "repro.reporting",
    "write_bench_json": "repro.reporting.campaign",
}

#: plancache exports use module-local names; map the public alias back.
_ALIASES = {
    "plan_cache_stats": "stats",
    "clear_plan_caches": "clear_caches",
}

__all__ = sorted(_PUBLIC_API) + ["__version__"]


def __getattr__(name: str):
    module_name = _PUBLIC_API.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, _ALIASES.get(name, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_PUBLIC_API))
