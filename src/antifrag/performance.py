"""Good-performance metrics computed on raw, window-sliced histories.

Every metric works on unnormalized values. Ratio metrics divide by the
channel mean and are undefined when that mean is zero; market-cap metrics
exist only where caps were observed. ``age_days`` counts from the agent's
first observation in its full history (not the slice) to the window's end.

A window's metrics are one ``PerformanceTable``: values and their texts, each
formatted once, that every report showing them reads.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from typing import NamedTuple

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


class PerformanceTable(NamedTuple):
    """One window's metrics: ``values[row_of[aid]]`` holds an agent's
    ``PERF_VARIABLES`` and ``text[row_of[aid]]`` their texts. Rows are in id
    order, and a last row, all undefined, stands for any other agent."""

    row_of: dict[str, int]
    values: np.ndarray
    text: list[list[str]]

    @classmethod
    def from_rows(cls, rows: dict) -> "PerformanceTable":
        """The table of metric rows (``PERF_VARIABLES`` order, None where
        undefined) keyed by agent id, whatever order the keys come in."""
        ids = sorted(rows)
        values = np.array([*map(rows.get, ids), [None] * len(PERF_VARIABLES)], dtype=float)
        text = [["" if v != v else format(v, ".17g") for v in row] for row in values.tolist()]
        return cls(dict(zip(ids, range(len(ids)))), values, text)


def compute_performance(sliced: list[AgentSeries], full_start: dict[str, dt.date],
                        window: AnalysisWindow) -> PerformanceTable:
    """The table of every sliced agent's metrics over ``window``; each series
    must hold at least two observations, and ``full_start`` maps its id to
    the first date of its full history."""
    rows = {}
    for s in sliced:
        prices = s.open.tolist()
        # the pct_dlt_*, pct_*_f_i and *_mea of price, market cap and volume
        spread, change, (pr_mea, mk_mea, vl_mea) = zip(*map(_channel_metrics, (
            prices, s.cap[~np.isnan(s.cap)].tolist(), s.volume.tolist())))
        pr_std = float(np.sqrt(deviations(prices)[1] / len(prices)))
        age_days = float((window.end - full_start[s.agent_id]).days)
        rows[s.agent_id] = [age_days, *spread, *change, pr_mea, pr_std, mk_mea, vl_mea]
    return PerformanceTable.from_rows(rows)
