"""Time-scale resampling and per-agent min-max normalization.

Scale codes: 0 = daily, 1 = weekly (ISO-8601 weeks), 2 = monthly (calendar
months). Every period is identified by its canonical first calendar day (the
date itself, the week's Monday, the month's first), which makes periods
comparable across agents regardless of which days each one actually traded.

Within a period, ``open`` and ``market_cap`` come from the period's first
observation and ``volume`` is summed. A series is only usable at a scale if
it spans at least two periods. Gaps are never filled: each series is treated
as its own observation sequence.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ComputeError
from .ingestion import CRYPTO, AgentSeries, AnalysisWindow, IndexSeries

PRICE = "price"
VOLUME = "volume"
MARKET_CAP = "market_cap"
INDEX = "index"


class TimeScale(IntEnum):
    DAILY = 0
    WEEKLY = 1
    MONTHLY = 2


_EPOCH = dt.date(1970, 1, 1).toordinal()


def period_starts(days: np.ndarray, scale: TimeScale) -> np.ndarray:
    """Map day ordinals to the ordinal of their period's canonical first day."""
    if scale == TimeScale.DAILY:
        return days
    if scale == TimeScale.WEEKLY:
        # ordinal 1 (0001-01-01) is a Monday
        return days - (days - 1) % 7
    if scale == TimeScale.MONTHLY:
        months = (days - _EPOCH).astype("datetime64[D]").astype("datetime64[M]")
        return months.astype("datetime64[D]").astype(np.int64) + _EPOCH
    raise ValueError(f"unknown time scale {scale!r}")


def _bucket_sums(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum each run ``values[first[i]:first[i + 1]]``, the last one to the end.

    Runs of equal length are stacked into one 2-D array and reduced along its
    rows. That gives every run the pairwise summation ``np.sum`` gives it on
    its own, bit for bit; ``np.add.reduceat`` sums sequentially and may
    differ in the last bit.
    """
    lengths = np.diff(first, append=len(values))
    sums = np.empty(len(first))
    for length in np.unique(lengths).tolist():
        runs = lengths == length
        rows = first[runs][:, None] + np.arange(length)
        sums[runs] = np.add.reduce(values[rows], axis=1)
    return sums


def minmax_normalize(values) -> np.ndarray:
    """Rescale a sequence into [0, 1]; a zero-range sequence becomes all 0.5."""
    arr = np.asarray(values, dtype=float)
    lo = arr.min()
    hi = arr.max()
    if hi == lo:
        return np.full(arr.shape, 0.5)
    return (arr - lo) / (hi - lo)


@dataclass(frozen=True)
class NormalizedSeries:
    """One agent channel (or one index) on the resampled period grid.

    ``days`` holds the period-start day ordinals, ``raw`` the resampled input
    values and ``values`` their min-max normalization over the analysis
    window; all three align.
    """

    days: np.ndarray
    raw: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.days)


@dataclass(frozen=True)
class NormalizedPanel:
    """All alive agents and indexes of one window at one scale."""

    market_kind: str
    window: AnalysisWindow
    scale: TimeScale
    period_axis: np.ndarray
    agents: dict[str, dict[str, NormalizedSeries]]
    indexes: dict[str, NormalizedSeries]


def _normalized(days, raw) -> NormalizedSeries:
    return NormalizedSeries(days, raw, minmax_normalize(raw))


def build_panel(
    agents: list[AgentSeries],
    indexes: list[IndexSeries],
    window: AnalysisWindow,
    scale: TimeScale,
) -> NormalizedPanel:
    """Resample and normalize every alive agent and index over one window.

    ``agents`` must already be sliced to the window. Agents that resample to
    fewer than two periods are dropped; if none survive the panel is empty
    and that is an error. The period axis is the sorted union of the
    surviving agents' periods.
    """
    panel_agents: dict[str, dict[str, NormalizedSeries]] = {}
    axis = []
    market_kind = agents[0].market_kind if agents else CRYPTO
    for series in sorted(agents, key=lambda s: s.agent_id):
        keys, first = np.unique(period_starts(series.days, scale), return_index=True)
        if len(keys) < 2:
            continue
        axis.append(keys)
        channels = {
            PRICE: _normalized(keys, series.open[first]),
            VOLUME: _normalized(keys, _bucket_sums(series.volume, first)),
        }
        cap = series.cap[first]
        has_cap = ~np.isnan(cap)
        if has_cap.any():
            channels[MARKET_CAP] = _normalized(keys[has_cap], cap[has_cap])
        panel_agents[series.agent_id] = channels

    if not panel_agents:
        raise ComputeError(
            f"empty panel: no agent alive in window {window.label} at scale {int(scale)}"
        )

    panel_indexes = {}
    for index in indexes:
        inside = window.span(index.days)
        keys, first = np.unique(
            period_starts(index.days[inside], scale), return_index=True
        )
        if not len(keys):
            continue
        panel_indexes[index.index_id] = _normalized(keys, index.levels[inside][first])

    return NormalizedPanel(
        market_kind=market_kind,
        window=window,
        scale=scale,
        period_axis=np.unique(np.concatenate(axis)),
        agents=panel_agents,
        indexes=panel_indexes,
    )
