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

import numpy as np

from .analysis import deviations
from .ingestion import AgentSeries, AnalysisWindow

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
    window: AnalysisWindow, top: dict[int, frozenset[str]] | None
) -> frozenset[str]:
    """Top performers matching a window, keyed by the window's end year.

    A missing year is only worth a warning; the window then simply has no
    top performers.
    """
    if not top:
        return frozenset()
    year = window.end.year
    if year not in top:
        logger.warning(
            "no top-performer list for year %d (window %s)", year, window.label
        )
    return top.get(year, frozenset())


def compute_performance(
    series: AgentSeries, full_history_start: dt.date, window: AnalysisWindow
) -> dict[str, float | None]:
    """All metrics for one agent over one window, keyed by variable id in
    ``PERF_VARIABLES`` order, with ``age_days`` as a float.

    ``series`` must already be sliced to the window and hold at least two
    observations.
    """
    prices = series.open.tolist()
    volumes = series.volume.tolist()
    caps = series.cap[~np.isnan(series.cap)].tolist()

    pct_dlt_pr, pct_pr_f_i, pr_mea = _channel_metrics(prices)
    pct_dlt_vl, pct_vl_f_i, vl_mea = _channel_metrics(volumes)
    pct_dlt_mk, pct_mk_f_i, mk_mea = _channel_metrics(caps)

    pr_std = float(np.sqrt(deviations(prices)[1] / len(prices)))

    return {
        "age_days": float((window.end - full_history_start).days),
        "pct_dlt_pr": pct_dlt_pr,
        "pct_dlt_mk": pct_dlt_mk,
        "pct_dlt_vl": pct_dlt_vl,
        "pct_pr_f_i": pct_pr_f_i,
        "pct_mk_f_i": pct_mk_f_i,
        "pct_vl_f_i": pct_vl_f_i,
        "pr_mea": pr_mea,
        "pr_std": pr_std,
        "mk_mea": mk_mea,
        "vl_mea": vl_mea,
    }
