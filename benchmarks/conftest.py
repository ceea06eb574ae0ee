"""Shared fixtures for the benchmark harness.

The expensive artefacts — the k-completion checksum evaluation and the
verification funnel it feeds — are produced once per session and shared by
the Table 2, Table 3, Figure 5, and Figure 6 targets, exactly mirroring how
the paper's experiments build on one another.

All suite-scale work goes through the campaign engine: kernels fan out over
a process pool and share one session-scoped content-addressed result cache,
so re-running a benchmark target reuses everything the earlier targets
already settled.  Per-kernel results are derived-seed deterministic, i.e.
identical at any worker count.

Environment knobs (all optional):

``REPRO_BENCH_COMPLETIONS``
    number of completions per kernel for the RQ1 evaluation (default 30;
    the paper uses 100 — raise it when runtime is not a concern).
``REPRO_BENCH_KERNELS``
    comma-separated kernel subset (default: the full suite).
``REPRO_BENCH_WORKERS``
    campaign worker-pool width (default 0 = one worker per CPU; 1 runs
    serially in-process).
``REPRO_BENCH_BATCH``
    kernel tasks per worker dispatch: ``auto`` (the default) adapts batch
    sizes to the remaining queue (guided self-scheduling with work
    stealing), an int fixes the size, ``1`` restores one task per
    dispatch.  Batch size never changes results — per-kernel seeds derive
    from kernel names.
``REPRO_BENCH_STORE``
    path to a campaign JSONL result store; lets an interrupted benchmark
    session resume and persists results for offline inspection.
``REPRO_BENCH_SHARD``
    ``i/n`` restricts every campaign of the session to the i-th of n
    disjoint suite shards (kernel-name-hash partition; results stay
    bit-identical to an unsharded run).  Point each shard's machine at its
    own ``REPRO_BENCH_STORE`` file, then merge the stores into one report
    with ``repro.pipeline.shard.merge_stores`` / ``report_from_store``.
``REPRO_BENCH_TARGETS``
    comma-separated target ISAs for the multi-target campaign benchmark
    (``sse4,neon,avx2,avx512``; ``all`` expands to every registered
    target, which is also the default).  All targets share the session's
    result store; the target-salted fingerprints keep their entries
    disjoint.
``REPRO_BENCH_JSON``
    when set, write every campaign summary of the session (throughput,
    cache hit-rates, verdict counts per target) to a benchmark JSON file —
    ``1``/``true`` selects the default ``BENCH_campaign.json`` at the repo
    root, any other value is used as the output path.  This is what feeds
    the perf trajectory across runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import run_checksum_evaluation, run_verification_funnel
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline import CampaignConfig, CampaignRunner
from repro.targets import get_target, target_names
from repro.tsvc import all_kernel_names, load_kernel

_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``bench`` marker."""
    for item in items:
        try:
            in_benchmarks = item.path.is_relative_to(_BENCH_DIR)
        except (AttributeError, ValueError):
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.bench)


def _configured_kernels() -> list[str] | None:
    names = os.environ.get("REPRO_BENCH_KERNELS", "").strip()
    if not names:
        return None
    return [name.strip() for name in names.split(",") if name.strip()]


def _configured_completions() -> int:
    return int(os.environ.get("REPRO_BENCH_COMPLETIONS", "30"))


def _configured_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def _configured_batch() -> "int | str":
    value = os.environ.get("REPRO_BENCH_BATCH", "").strip().lower()
    if not value or value == "auto":
        return "auto"
    return int(value)


def _configured_shard():
    from repro.pipeline import ShardSpec

    spec = os.environ.get("REPRO_BENCH_SHARD", "").strip()
    return ShardSpec.parse(spec) if spec else None


def _configured_targets() -> list[str]:
    names = os.environ.get("REPRO_BENCH_TARGETS", "").strip()
    if not names or names.lower() in ("all", "*"):
        return target_names()
    return [get_target(name).name for name in names.split(",") if name.strip()]


@pytest.fixture(scope="session")
def bench_kernels() -> list[str]:
    return _configured_kernels() or all_kernel_names()


@pytest.fixture(scope="session")
def bench_completions() -> int:
    return _configured_completions()


@pytest.fixture(scope="session")
def bench_targets() -> list[str]:
    return _configured_targets()


def _bench_json_path() -> Path | None:
    value = os.environ.get("REPRO_BENCH_JSON", "").strip()
    if not value or value.lower() in ("0", "false", "no"):
        return None
    if value.lower() in ("1", "true", "yes"):
        return _BENCH_DIR.parent / "BENCH_campaign.json"
    return Path(value)


@pytest.fixture(scope="session")
def bench_campaign() -> CampaignRunner:
    """One campaign runner (and thus one result cache) for the whole session.

    With ``REPRO_BENCH_JSON`` set, every campaign summary the session
    produced is written out at teardown so the perf trajectory accumulates.
    """
    store = os.environ.get("REPRO_BENCH_STORE", "").strip() or None
    config = CampaignConfig(workers=_configured_workers(), store_path=store,
                            shard=_configured_shard(),
                            batch_size=_configured_batch())
    runner = CampaignRunner(config)
    yield runner
    path = _bench_json_path()
    if path is not None and runner.summaries:
        from repro.perf.profile import machine_score
        from repro.reporting.campaign import write_bench_json

        write_bench_json(runner.summaries, path, machine_score=machine_score())


@pytest.fixture(scope="session")
def checksum_evaluation(bench_kernels, bench_completions, bench_campaign):
    """The RQ1 evaluation (Table 2 / Figure 5 input), computed once."""
    llm = SyntheticLLM(SyntheticLLMConfig(seed=2024))
    return run_checksum_evaluation(
        num_completions=bench_completions, kernels=bench_kernels, llm=llm,
        campaign=bench_campaign,
    )


@pytest.fixture(scope="session")
def verification_funnel(checksum_evaluation, bench_kernels, bench_campaign):
    """The RQ2 funnel (Table 3), fed by the first plausible candidate per kernel."""
    candidates = checksum_evaluation.first_plausible_codes()
    sources = {name: load_kernel(name).source for name in candidates}
    return run_verification_funnel(
        candidates, sources, total_tests=len(bench_kernels), campaign=bench_campaign,
    )
