"""Plain-text table and figure renderers for the experiment harness."""

from repro.reporting.tables import render_table, render_pass_at_k_curve
from repro.reporting.campaign import (
    render_campaign_errors,
    render_campaign_report,
    render_campaign_summaries,
    render_campaign_summary,
)

__all__ = [
    "render_table",
    "render_pass_at_k_curve",
    "render_campaign_errors",
    "render_campaign_report",
    "render_campaign_summaries",
    "render_campaign_summary",
]
