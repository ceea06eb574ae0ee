"""End-to-end pipeline: Algorithm 1, per-kernel runners and the campaign engine."""

from repro.verdict import Verdict
from repro.pipeline.equivalence import EquivalencePipeline, PipelineReport
from repro.pipeline.runner import KernelRunResult, LLMVectorizer, LLMVectorizerConfig
from repro.pipeline.cache import config_fingerprint, content_key, store_live_entries
from repro.pipeline.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    CampaignSummary,
    KernelTask,
    ShardSpec,
    derive_kernel_seed,
    is_error_result,
    shard_of,
)
from repro.pipeline.shard import merge_stores, report_from_store
from repro.pipeline.scheduler import ExecutionStats, next_batch_size
from repro.pipeline.incremental import (
    CompactionStats,
    IncrementalPlan,
    compact_store,
    plan_reverify,
    reverify,
)

__all__ = [
    "Verdict",
    "EquivalencePipeline",
    "PipelineReport",
    "KernelRunResult",
    "LLMVectorizer",
    "LLMVectorizerConfig",
    "config_fingerprint",
    "content_key",
    "CampaignConfig",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSummary",
    "KernelTask",
    "ShardSpec",
    "derive_kernel_seed",
    "is_error_result",
    "shard_of",
    "merge_stores",
    "report_from_store",
    "store_live_entries",
    "ExecutionStats",
    "next_batch_size",
    "CompactionStats",
    "IncrementalPlan",
    "compact_store",
    "plan_reverify",
    "reverify",
]
