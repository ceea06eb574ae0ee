"""Multi-target campaign benchmark: one invocation, one cache, N ISAs.

The ROADMAP's "multi-backend targets as parallel campaigns over the same
cache" milestone, made runnable: the full pipeline (FSM -> checksum ->
formal verification) fans out per target ISA over a representative kernel
slice, every per-ISA campaign sharing the session's content-addressed
cache.  ``REPRO_BENCH_TARGETS`` selects the ISAs (default: all of them),
``REPRO_BENCH_KERNELS`` widens the kernel slice to the full suite.
"""

from __future__ import annotations

import os

from repro.reporting import render_campaign_summaries

#: A representative slice across the paper's categories (linear, reduction,
#: control flow, induction, dependence-rejected) keeps the default tier-1
#: runtime modest; REPRO_BENCH_KERNELS overrides it with any subset.
DEFAULT_KERNELS = [
    "s000", "s1111", "s212", "s251", "s271", "s453",
    "vsumr", "vdotr", "vif", "s321", "s116",
]


def _campaign_kernels() -> list[str]:
    names = os.environ.get("REPRO_BENCH_KERNELS", "").strip()
    if not names:
        return DEFAULT_KERNELS
    return [name.strip() for name in names.split(",") if name.strip()]


def test_multi_target_campaign_shares_one_cache(bench_campaign, bench_targets):
    kernels = _campaign_kernels()
    reports = bench_campaign.run_multi_target(kernels, targets=bench_targets)

    assert list(reports) == bench_targets
    for target, report in reports.items():
        assert report.summary.target == target
        assert report.summary.kernels == len(kernels)
        # Every kernel reaches a verdict on every target.
        assert all("verdict" in record.result for record in report.records)

    # The per-ISA campaigns must stay disjoint in the shared cache: records
    # for the same kernel on different targets never share a cache key.
    for kernel in kernels:
        keys = {next(r.key for r in reports[target].records if r.kernel == kernel)
                for target in bench_targets}
        assert len(keys) == len(bench_targets)

    print()
    print(render_campaign_summaries([report.summary for report in reports.values()]))


def test_multi_target_rerun_is_fully_cached(bench_campaign, bench_targets):
    kernels = _campaign_kernels()
    reports = bench_campaign.run_multi_target(kernels, targets=bench_targets)
    for report in reports.values():
        assert report.summary.executed == 0
        assert report.summary.cache_hit_rate == 1.0
