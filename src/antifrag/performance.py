"""Good-performance metrics computed on raw, window-sliced histories.

Every metric works on unnormalized values. Ratio metrics divide by the
channel mean and are reported as undefined (None) when that mean is zero;
market-cap metrics exist only where caps were observed. ``age_days`` counts
from the agent's first observation in its full history (not the slice) to the
window's end.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass

import numpy as np

from .ingestion import AgentSeries, AnalysisWindow, TopPerformerList

logger = logging.getLogger(__name__)

# report/serialization order for the metric columns
PERF_VARIABLES = (
    "age_days",
    "pct_dlt_pr",
    "pct_dlt_mk",
    "pct_dlt_vl",
    "pct_pr_f_i",
    "pct_mk_f_i",
    "pct_vl_f_i",
    "pr_mea",
    "pr_std",
    "mk_mea",
    "vl_mea",
)


@dataclass(frozen=True)
class PerformanceRecord:
    agent_id: str
    window: str
    age_days: int
    pct_dlt_pr: float | None
    pct_dlt_mk: float | None
    pct_dlt_vl: float | None
    pct_pr_f_i: float | None
    pct_mk_f_i: float | None
    pct_vl_f_i: float | None
    pr_mea: float | None
    pr_std: float | None
    mk_mea: float | None
    vl_mea: float | None
    is_top_performer: bool

    def variables(self) -> dict[str, float | None]:
        """Metric values keyed by variable id, age as a float."""
        out = {"age_days": float(self.age_days)}
        for name in PERF_VARIABLES[1:]:
            out[name] = getattr(self, name)
        return out


def _channel_metrics(values: list[float]):
    """(spread/mean, (final-initial)/mean, mean) for one raw channel."""
    if not values:
        return None, None, None
    mean = math.fsum(values) / len(values)
    if mean == 0.0:
        return None, None, mean
    spread = (max(values) - min(values)) / mean
    change = (values[-1] - values[0]) / mean
    return spread, change, mean


def top_ids_for(
    window: AnalysisWindow, top_lists: list[TopPerformerList] | None
) -> frozenset[str]:
    """Top performers matching a window, keyed by the window's end year.

    A missing year is only worth a warning; the window then simply has no
    top performers.
    """
    if not top_lists:
        return frozenset()
    year = window.end.year
    for entry in top_lists:
        if entry.year == year:
            return entry.agent_ids
    logger.warning(
        "no top-performer list for year %d (window %s)", year, window.label
    )
    return frozenset()


def compute_performance(
    series: AgentSeries,
    full_history_start: dt.date,
    window: AnalysisWindow,
    top_ids: frozenset[str],
) -> PerformanceRecord:
    """All metrics for one agent over one window.

    ``series`` must already be sliced to the window and hold at least two
    observations.
    """
    prices = series.open.tolist()
    volumes = series.volume.tolist()
    caps = series.cap[~np.isnan(series.cap)].tolist()

    pct_dlt_pr, pct_pr_f_i, pr_mea = _channel_metrics(prices)
    pct_dlt_vl, pct_vl_f_i, vl_mea = _channel_metrics(volumes)
    pct_dlt_mk, pct_mk_f_i, mk_mea = _channel_metrics(caps)

    mean = math.fsum(prices) / len(prices)
    pr_std = float(np.sqrt(math.fsum((p - mean) ** 2 for p in prices) / len(prices)))

    return PerformanceRecord(
        agent_id=series.agent_id,
        window=window.label,
        age_days=(window.end - full_history_start).days,
        pct_dlt_pr=pct_dlt_pr,
        pct_dlt_mk=pct_dlt_mk,
        pct_dlt_vl=pct_dlt_vl,
        pct_pr_f_i=pct_pr_f_i,
        pct_mk_f_i=pct_mk_f_i,
        pct_vl_f_i=pct_vl_f_i,
        pr_mea=pr_mea,
        pr_std=pr_std,
        mk_mea=mk_mea,
        vl_mea=vl_mea,
        is_top_performer=series.agent_id in top_ids,
    )
