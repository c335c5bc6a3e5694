"""Satisfaction, perturbation, and antifragility series.

An agent's satisfaction at a period is the signed change of its normalized
price since its previous observed period. A perturbation series is a
system-wide, period-indexed magnitude in [0, 1]; each variant below builds it
from a different channel. Antifragility multiplies the two wherever both are
defined: an agent whose satisfaction tends to rise with system perturbation
scores positive (antifragile), one that suffers under perturbation scores
negative (fragile).

A case is computed on the panel's tables (see ``resampling``) with the same
numpy calls for any number of agents: one ``np.diff`` per channel, masked at
agent boundaries, and one ``searchsorted`` join per measure. The per-agent
``satisfactions`` and ``results`` are views, built on first access.

Periods are the panel's int64 period-start day ordinals, and series are
joined on those sorted arrays (``argsort``, ``searchsorted``,
``intersect1d``). Per-agent contributions to a system mean exist only at
periods where the underlying inputs exist; the mean at a period divides by
the number of agents actually contributing there. Every sum is
``math.fsum``, which is correctly rounded, so no result depends on the order
in which values are summed.

Measure ids by market kind:
    stock:  afp (price), afv (price+volume), afx (VIX level), af3m (three
            reference indexes)
    crypto: afp (raw price, system series normalized afterwards), afv
            (volume), afn (lagged own satisfaction magnitude), afm
            (market cap)
"""

from __future__ import annotations

import datetime as dt
import math
from functools import cached_property, partial, reduce
from typing import NamedTuple

import numpy as np

from .config import INDEXES_BY_MEASURE, MEASURES_BY_KIND, STOCK
from .errors import ComputeError
from .ingestion import to_dates
from .resampling import (
    MARKET_CAP,
    PRICE,
    VOLUME,
    Channel,
    NormalizedPanel,
    Ragged,
    minmax_normalize,
    offsets_where,
)


class SatisfactionSeries(NamedTuple):
    """Signed normalized-price changes of one agent, always within [-1, 1]."""

    agent_id: str
    days: np.ndarray
    values: np.ndarray


class PerturbationSeries(NamedTuple):
    """System-wide perturbation magnitudes, one value per defined period."""

    days: np.ndarray
    values: np.ndarray

    @property
    def periods(self) -> tuple[dt.date, ...]:
        """The period starts as dates."""
        return to_dates(self.days)


class AntifragilityResult(NamedTuple):
    """Antifragility of one agent under one measure at one scale."""

    days: np.ndarray
    instants: np.ndarray
    global_a: float
    n_used: int


class Scores(Ragged):
    """One measure's antifragility for every alive agent of a case: the
    instants are ``values``, and ``global_a[k]`` is the mean of agent k's,
    NaN when it has none (it is excluded for the measure)."""

    __slots__ = ("global_a",)

    def __init__(self, offsets: np.ndarray, days: np.ndarray, values: np.ndarray,
                 global_a: np.ndarray):
        super().__init__(offsets, days, values)
        self.global_a = global_a


def satisfaction_table(prices: Channel) -> Ragged:
    """Every agent's normalized price differenced against its previous
    observed one."""
    return prices.differences(prices.values)


def _system_mean(measure: str, days, values) -> PerturbationSeries:
    """Average the per-agent contributions ``values`` at ``days``, period by period.

    Within each period the divisor is the count of agents contributing
    there. Raises when no agent contributes at any period.
    """
    if not len(days):
        raise ComputeError(f"{measure}: no agent defined at any period")
    order = np.argsort(days, kind="stable")
    periods, first = np.unique(days[order], return_index=True)
    values = values[order].tolist()
    bounds = first.tolist() + [len(values)]
    means = [math.fsum(values[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]
    return PerturbationSeries(periods, np.array(means))


def _abs_changes(measure: str, channel: Channel, column: np.ndarray) -> PerturbationSeries:
    """The system mean of every agent's absolute changes of ``column``."""
    changes = channel.differences(column)
    return _system_mean(measure, changes.days, np.abs(changes.values))


def perturb_price(panel: NormalizedPanel) -> PerturbationSeries:
    """Price-based perturbation (afp).

    Stocks: mean of per-agent absolute normalized-price changes. Crypto: same
    on raw prices, with the resulting system series min-max normalized
    afterwards.
    """
    price = panel.channels[PRICE]
    if panel.market_kind == STOCK:
        return _abs_changes("afp", price, price.values)
    p = _abs_changes("afp", price, price.raw)
    return PerturbationSeries(p.days, minmax_normalize(p.values))


def perturb_volume(sat: Ragged, panel: NormalizedPanel) -> PerturbationSeries:
    """Volume perturbation (afv). Stocks: mean of |satisfaction +
    normalized-volume change| / 2. Crypto: absolute normalized-volume changes."""
    volume = panel.channels[VOLUME]
    if panel.market_kind != STOCK:
        return _abs_changes("afv", volume, volume.values)
    # price and volume share each agent's period grid, so sat aligns with dv
    dv = volume.differences(volume.values)
    return _system_mean("afv", dv.days, np.abs(sat.values + dv.values) / 2.0)


def perturb_marketcap(panel: NormalizedPanel) -> PerturbationSeries:
    """Market-cap perturbation: absolute normalized-cap changes.

    Agents lacking a cap at a period contribute nothing there; caps observed
    either side of a gap are differenced against each other.
    """
    cap = panel.channels[MARKET_CAP]
    return _abs_changes("afm", cap, cap.values)


def perturb_normalized_price(sat: Ragged) -> PerturbationSeries:
    """Lagged-satisfaction perturbation (afn): |S| one observed period later."""
    later = sat.later_rows()
    return _system_mean("afn", sat.days[later], np.abs(sat.values[:-1][later[1:]]))


def perturb_vix(panel: NormalizedPanel) -> PerturbationSeries:
    """VIX perturbation (afx): the normalized level itself, not a change."""
    (iid,) = INDEXES_BY_MEASURE["afx"]
    vix = panel.indexes.get(iid)
    if vix is None or len(vix) == 0:
        raise ComputeError(f"afx: no {iid} data inside the window")
    return PerturbationSeries(vix.days, vix.values.copy())


def perturb_three_indexes(panel: NormalizedPanel) -> PerturbationSeries:
    """Three-index perturbation (af3m): mean absolute normalized change of
    NASDAQ, DJI, and SPX; periods missing from any of the three are excluded."""
    parts = []
    for iid in INDEXES_BY_MEASURE["af3m"]:
        index = panel.indexes.get(iid)
        if index is None or len(index) < 2:
            raise ComputeError(f"af3m: insufficient {iid} data inside the window")
        parts.append((index.days[1:], np.abs(np.diff(index.values))))
    # each index's period keys are unique already
    common = reduce(partial(np.intersect1d, assume_unique=True), [d for d, _ in parts])
    if not len(common):
        raise ComputeError("af3m: indexes share no differenced period")
    columns = [diffs[np.searchsorted(days, common)].tolist() for days, diffs in parts]
    values = np.array([math.fsum(t) / len(parts) for t in zip(*columns)])
    return PerturbationSeries(common, values)


def antifragility_scores(sat: Ragged, p: PerturbationSeries) -> Scores:
    """Combine every agent's satisfaction with a system perturbation series.

    The product is taken at every period where both are defined; an agent's
    global value is the plain mean of its instants. An agent without an
    overlapping period has no instants and is excluded for the measure.
    """
    at = p.days.searchsorted(sat.days)
    both = p.days.take(at, mode="clip") == sat.days
    instants = sat.values[both] * p.values[at[both]]
    offsets = offsets_where(sat.offsets, both)
    values, bounds = instants.tolist(), offsets.tolist()
    global_a = [
        math.fsum(values[a:b]) / (b - a) if b > a else math.nan
        for a, b in zip(bounds, bounds[1:])
    ]
    return Scores(offsets, sat.days[both], instants, np.array(global_a))


class WindowScaleResults:
    """Everything one (window, scale) case produced, as case tables: the
    satisfaction of the panel's alive agents (in ``alive_agents`` order) and
    one ``Scores`` table per measure."""

    def __init__(self, alive_agents: tuple[str, ...], satisfaction: Ragged,
                 perturbations: dict[str, PerturbationSeries], scores: dict[str, Scores]):
        self.alive_agents = alive_agents
        self.satisfaction = satisfaction
        self.perturbations = perturbations
        self.scores = scores

    @cached_property
    def satisfactions(self) -> dict[str, SatisfactionSeries]:
        """Each agent's view of the satisfaction table, built on first access."""
        s = self.satisfaction
        return {
            aid: SatisfactionSeries(aid, s.days[rows], s.values[rows])
            for aid, rows in s.split(self.alive_agents).items()
        }

    @cached_property
    def results(self) -> dict[str, dict[str, AntifragilityResult]]:
        """Per measure, each included agent's view of the scores, built on
        first access."""
        results = {}
        for m, sc in self.scores.items():
            global_a = dict(zip(self.alive_agents, sc.global_a.tolist()))
            results[m] = {
                aid: AntifragilityResult(
                    sc.days[rows], sc.values[rows], global_a[aid], rows.stop - rows.start
                )
                for aid, rows in sc.split(self.alive_agents).items()
            }
        return results


def compute_measures(panel: NormalizedPanel, measures) -> WindowScaleResults:
    """Run the requested measures over one panel and bound-check everything."""
    for m in measures:
        if m not in MEASURES_BY_KIND[panel.market_kind]:
            raise ComputeError(f"measure {m} invalid for {panel.market_kind}")

    sat = satisfaction_table(panel.channels[PRICE])
    perturb = {
        "afp": partial(perturb_price, panel),
        "afv": partial(perturb_volume, sat, panel),
        "afm": partial(perturb_marketcap, panel),
        "afn": partial(perturb_normalized_price, sat),
        "afx": partial(perturb_vix, panel),
        "af3m": partial(perturb_three_indexes, panel),
    }
    perturbations = {m: perturb[m]() for m in sorted(measures)}

    scores = {m: antifragility_scores(sat, pser) for m, pser in perturbations.items()}

    out = WindowScaleResults(panel.ids, sat, perturbations, scores)
    check_bounds(out)
    return out


def check_bounds(ws: WindowScaleResults) -> None:
    """Assert the range invariants every run must satisfy, with one pass
    over each case table."""
    s = ws.satisfaction
    if len(s.values) and (s.values.min() < -1.0 or s.values.max() > 1.0):
        row = int(np.flatnonzero(np.abs(s.values) > 1.0)[0])
        aid = ws.alive_agents[int(s.offsets.searchsorted(row, side="right")) - 1]
        raise ComputeError(f"satisfaction out of [-1, 1] for agent {aid}")
    for m, p in ws.perturbations.items():
        if len(p.values) and (p.values.min() < 0.0 or p.values.max() > 1.0):
            raise ComputeError(f"perturbation {m} out of [0, 1]")
    for m, sc in ws.scores.items():
        used = np.flatnonzero(sc.counts)
        peak = np.maximum.reduceat(np.abs(sc.values), sc.offsets[used])
        for bad, problem in (
            (peak > 1.0, "instant antifragility out of [-1, 1]"),
            (np.abs(sc.global_a[used]) > peak, "global antifragility exceeds instants"),
        ):
            if bad.any():
                raise ComputeError(f"{problem}: {m}/{ws.alive_agents[used[bad.argmax()]]}")
