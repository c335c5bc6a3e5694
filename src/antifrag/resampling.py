"""Time-scale resampling and per-agent min-max normalization.

Scale codes: 0 = daily, 1 = weekly (ISO-8601 weeks), 2 = monthly (calendar
months). Every period is identified by its canonical first calendar day (the
date itself, the week's Monday, the month's first), which makes periods
comparable across agents regardless of which days each one actually traded.

Within a period, ``open`` and ``market_cap`` come from the period's first
observation and ``volume`` is summed. A series is only usable at a scale if
it spans at least two periods. Gaps are never filled: each series is treated
as its own observation sequence.

A panel holds one table per channel: the rows of all alive agents,
concatenated in sorted-id order, with per-agent ``offsets``. It is built
with the same numpy calls for any number of agents, and ``panel.agents``
serves per-agent views of it, built on first access.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .config import AnalysisWindow, TimeScale
from .errors import ComputeError
from .ingestion import AgentSeries, IndexSeries

PRICE = "price"
VOLUME = "volume"
MARKET_CAP = "market_cap"
INDEX = "index"


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


def minmax_normalize(values, offsets=None) -> np.ndarray:
    """Rescale each segment ``values[offsets[k]:offsets[k + 1]]`` (by default
    the whole sequence) into [0, 1]; a zero-range segment becomes all 0.5.
    Bounds are reduced over non-empty segments only: ``reduceat`` gives an
    empty segment the element at its index."""
    raw = np.asarray(values, dtype=float)
    offsets = np.array([0, len(raw)]) if offsets is None else offsets
    counts = np.diff(offsets)
    present = counts > 0
    starts = offsets[:-1][present]
    lo = np.repeat(np.minimum.reduceat(raw, starts), counts[present])
    span = np.repeat(np.maximum.reduceat(raw, starts), counts[present]) - lo
    return np.divide(raw - lo, span, out=np.full(len(raw), 0.5), where=span != 0)


def offsets_where(offsets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The offsets of a table's segments once the rows ``mask`` leaves out
    are dropped."""
    return np.concatenate(([0], np.cumsum(mask)))[offsets]


@dataclass(frozen=True)
class Ragged:
    """Rows of many agents, concatenated in agent order: agent k owns rows
    ``offsets[k]:offsets[k + 1]``, possibly none, at increasing period-start
    ordinals ``days``."""

    offsets: np.ndarray
    days: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.days)

    @property
    def counts(self) -> np.ndarray:
        """Each agent's number of rows."""
        return np.diff(self.offsets)

    def later_rows(self) -> np.ndarray:
        """Which rows follow an earlier row of the same agent."""
        later = np.ones(len(self.days), dtype=bool)
        later[self.offsets[:-1][self.counts > 0]] = False
        return later

    def differences(self, column: np.ndarray) -> "Ragged":
        """Each agent's change of ``column`` (aligned with ``days``) from one
        row to the next, dated at the later row."""
        later = self.later_rows()
        offsets = offsets_where(self.offsets, later)
        return Ragged(offsets, self.days[later], np.diff(column)[later[1:]])

    def split(self, ids) -> dict[str, slice]:
        """The rows of each agent of ``ids`` (the table's agents) that has any."""
        bounds = self.offsets.tolist()
        return {aid: slice(a, b) for aid, a, b in zip(ids, bounds, bounds[1:]) if a < b}


@dataclass(frozen=True)
class Channel(Ragged):
    """Agents' (or one index's) series on the resampled period grid: their
    resampled ``raw`` values and the min-max normalization ``values`` of each
    agent's rows over the analysis window."""

    raw: np.ndarray

    def view(self, rows: slice) -> "Channel":
        """The given rows of one agent as a table of their own."""
        offsets = np.array([0, rows.stop - rows.start])
        return Channel(offsets, self.days[rows], self.values[rows], self.raw[rows])


def _channel(offsets: np.ndarray, days: np.ndarray, raw: np.ndarray) -> Channel:
    """Each agent's rows normalized over its own minimum and maximum."""
    return Channel(offsets, days, minmax_normalize(raw, offsets), raw)


@dataclass(frozen=True)
class NormalizedPanel:
    """All alive agents and indexes of one window at one scale.

    ``ids`` are the alive agents in sorted order; every channel table
    follows that order, and an agent may have no ``market_cap`` rows.
    """

    market_kind: str
    window: AnalysisWindow
    scale: TimeScale
    period_axis: np.ndarray
    ids: tuple[str, ...]
    channels: dict[str, Channel]
    indexes: dict[str, Channel]

    @cached_property
    def agents(self) -> dict[str, dict[str, Channel]]:
        """Per-agent views of the channel tables, built on first access; an
        agent has an entry for each channel it has rows in."""
        views: dict[str, dict[str, Channel]] = {aid: {} for aid in self.ids}
        for name, ch in self.channels.items():
            for aid, rows in ch.split(self.ids).items():
                views[aid][name] = ch.view(rows)
        return views


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
    series = sorted(agents, key=attrgetter("agent_id"))
    keep = np.zeros(0, dtype=bool)
    if series:
        days = np.concatenate([s.days for s in series])
        starts = np.cumsum([0] + [len(s.days) for s in series[:-1]])
        keys = period_starts(days, scale)
        # a run of one period starts at each key change and each agent's first row
        run_start = np.ones(len(keys), dtype=bool)
        run_start[1:] = keys[1:] != keys[:-1]
        run_start[starts] = True
        first = np.flatnonzero(run_start)
        runs = np.diff(first.searchsorted(starts), append=len(first))
        keep = runs >= 2
    if not keep.any():
        raise ComputeError(
            f"empty panel: no agent alive in window {window.label} at scale {int(scale)}"
        )

    kept = np.repeat(keep, runs)
    volume = _bucket_sums(np.concatenate([s.volume for s in series]), first)[kept]
    first = first[kept]
    offsets = np.concatenate(([0], np.cumsum(runs[keep])))
    periods = keys[first]
    opens = np.concatenate([s.open for s in series])[first]
    cap = np.concatenate([s.cap for s in series])[first]
    has_cap = ~np.isnan(cap)
    channels = {
        PRICE: _channel(offsets, periods, opens),
        VOLUME: _channel(offsets, periods, volume),
        MARKET_CAP: _channel(
            offsets_where(offsets, has_cap), periods[has_cap], cap[has_cap]
        ),
    }

    panel_indexes = {}
    for index in indexes:
        inside = window.span(index.days)
        keys, first = np.unique(
            period_starts(index.days[inside], scale), return_index=True
        )
        if len(keys):
            panel_indexes[index.index_id] = _channel(
                np.array([0, len(keys)]), keys, index.levels[inside][first]
            )

    return NormalizedPanel(
        market_kind=series[0].market_kind,
        window=window,
        scale=scale,
        period_axis=np.unique(periods),
        ids=tuple([s.agent_id for s, alive in zip(series, keep.tolist()) if alive]),
        channels=channels,
        indexes=panel_indexes,
    )
