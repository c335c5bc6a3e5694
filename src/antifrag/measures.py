"""Satisfaction, perturbation, and antifragility series.

An agent's satisfaction at a period is the signed change of its normalized
price since its previous observed period. A perturbation series is a
system-wide, period-indexed magnitude in [0, 1]; each variant below builds it
from a different channel. Antifragility multiplies the two wherever both are
defined: an agent whose satisfaction tends to rise with system perturbation
scores positive (antifragile), one that suffers under perturbation scores
negative (fragile).

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
import logging
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ComputeError
from .ingestion import CRYPTO, STOCK, to_dates
from .resampling import (
    MARKET_CAP,
    PRICE,
    VOLUME,
    NormalizedPanel,
    NormalizedSeries,
    TimeScale,
    minmax_normalize,
)

logger = logging.getLogger(__name__)

STOCK_MEASURES = ("af3m", "afp", "afv", "afx")
CRYPTO_MEASURES = ("afm", "afn", "afp", "afv")
MEASURES_BY_KIND = {STOCK: STOCK_MEASURES, CRYPTO: CRYPTO_MEASURES}


@dataclass(frozen=True)
class SatisfactionSeries:
    """Signed normalized-price changes of one agent, always within [-1, 1]."""

    agent_id: str
    days: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class PerturbationSeries:
    """System-wide perturbation magnitudes, one value per defined period."""

    measure: str
    scale: TimeScale
    days: np.ndarray
    values: np.ndarray

    @property
    def periods(self) -> tuple[dt.date, ...]:
        """The period starts as dates."""
        return to_dates(self.days)


@dataclass(frozen=True)
class AntifragilityResult:
    """Antifragility of one agent under one measure at one scale."""

    days: np.ndarray
    instants: np.ndarray
    global_a: float
    n_used: int


def satisfaction(agent_id: str, prices: NormalizedSeries) -> SatisfactionSeries:
    """Difference each normalized price against the previous observed one."""
    if len(prices) < 2:
        raise ComputeError(f"agent {agent_id}: need at least 2 periods")
    return SatisfactionSeries(agent_id, prices.days[1:], np.diff(prices.values))


def _system_mean(measure: str, contributions) -> tuple[np.ndarray, np.ndarray]:
    """Average per-agent (days, values) contributions period by period.

    Within each period the divisor is the count of agents contributing
    there. Raises when no agent contributes at any period.
    """
    if not contributions:
        raise ComputeError(f"{measure}: no agent defined at any period")
    days = np.concatenate([d for d, _ in contributions])
    order = np.argsort(days, kind="stable")
    periods, first = np.unique(days[order], return_index=True)
    values = np.concatenate([v for _, v in contributions])[order].tolist()
    bounds = first.tolist() + [len(values)]
    means = [math.fsum(values[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]
    return periods, np.array(means)


def _abs_diff(series: NormalizedSeries, normalized=True):
    values = series.values if normalized else series.raw
    return series.days[1:], np.abs(np.diff(values))


def _agents_sorted(panel: NormalizedPanel):
    return [panel.agents[aid] for aid in sorted(panel.agents)]


def perturb_price(panel: NormalizedPanel) -> PerturbationSeries:
    """Price-based perturbation (afp).

    Stocks: mean of per-agent absolute normalized-price changes. Crypto: same
    on raw prices, with the resulting system series min-max normalized
    afterwards.
    """
    if panel.market_kind == STOCK:
        contribs = [_abs_diff(ch[PRICE]) for ch in _agents_sorted(panel)]
        days, means = _system_mean("afp", contribs)
        values = np.clip(means, 0.0, 1.0)
    else:
        contribs = [_abs_diff(ch[PRICE], normalized=False) for ch in _agents_sorted(panel)]
        days, means = _system_mean("afp", contribs)
        values = minmax_normalize(means)
    return PerturbationSeries("afp", panel.scale, days, values)


def perturb_volume_stock(
    satisfactions: dict[str, SatisfactionSeries], panel: NormalizedPanel
) -> PerturbationSeries:
    """Stock volume perturbation: |satisfaction + volume change| / 2."""
    contribs = []
    for aid in sorted(panel.agents):
        s = satisfactions[aid]
        volume = panel.agents[aid][VOLUME]
        # price and volume share the agent's period grid, so s aligns with dv
        dv = np.diff(volume.values)
        contribs.append((volume.days[1:], np.abs(s.values + dv) / 2.0))
    days, means = _system_mean("afv", contribs)
    return PerturbationSeries("afv", panel.scale, days, means)


def perturb_volume_crypto(panel: NormalizedPanel) -> PerturbationSeries:
    """Crypto volume perturbation: absolute normalized-volume changes."""
    contribs = [_abs_diff(ch[VOLUME]) for ch in _agents_sorted(panel)]
    days, means = _system_mean("afv", contribs)
    return PerturbationSeries("afv", panel.scale, days, means)


def perturb_marketcap(panel: NormalizedPanel) -> PerturbationSeries:
    """Market-cap perturbation: absolute normalized-cap changes.

    Agents lacking a cap at a period contribute nothing there; caps observed
    either side of a gap are differenced against each other.
    """
    contribs = []
    for aid in sorted(panel.agents):
        cap = panel.agents[aid].get(MARKET_CAP)
        if cap is not None and len(cap) >= 2:
            contribs.append(_abs_diff(cap))
    days, means = _system_mean("afm", contribs)
    return PerturbationSeries("afm", panel.scale, days, means)


def perturb_normalized_price(
    satisfactions: dict[str, SatisfactionSeries], panel: NormalizedPanel
) -> PerturbationSeries:
    """Lagged-satisfaction perturbation (afn): |S| one observed period later."""
    contribs = []
    for aid in sorted(panel.agents):
        s = satisfactions[aid]
        if len(s.days) >= 2:
            contribs.append((s.days[1:], np.abs(s.values[:-1])))
    days, means = _system_mean("afn", contribs)
    return PerturbationSeries("afn", panel.scale, days, means)


def perturb_vix(panel: NormalizedPanel) -> PerturbationSeries:
    """VIX perturbation (afx): the normalized level itself, not a change."""
    vix = panel.indexes.get("VIX")
    if vix is None or len(vix) == 0:
        raise ComputeError("afx: no VIX data inside the window")
    return PerturbationSeries("afx", panel.scale, vix.days, vix.values.copy())


def perturb_three_indexes(panel: NormalizedPanel) -> PerturbationSeries:
    """Three-index perturbation (af3m): mean absolute normalized change of
    NASDAQ, DJI, and SPX; periods missing from any of the three are excluded."""
    parts = []
    for iid in ("NASDAQ", "DJI", "SPX"):
        index = panel.indexes.get(iid)
        if index is None or len(index) < 2:
            raise ComputeError(f"af3m: insufficient {iid} data inside the window")
        parts.append(_abs_diff(index))
    common = reduce(np.intersect1d, [days for days, _ in parts])
    if not len(common):
        raise ComputeError("af3m: indexes share no differenced period")
    columns = [diffs[np.searchsorted(days, common)].tolist() for days, diffs in parts]
    values = np.array([math.fsum(t) / 3.0 for t in zip(*columns)])
    return PerturbationSeries("af3m", panel.scale, common, values)


def antifragility(
    s: SatisfactionSeries, p: PerturbationSeries
) -> AntifragilityResult | None:
    """Combine one agent's satisfaction with a system perturbation series.

    The product is taken at every period where both are defined; the global
    value is the plain mean of those instants. Returns None (the agent is
    excluded for this measure) when no period overlaps.
    """
    at = p.days.searchsorted(s.days)
    both = p.days.take(at, mode="clip") == s.days
    instants = s.values[both] * p.values[at[both]]
    if not len(instants):
        logger.info(
            "agent %s excluded for %s at scale %d: no overlapping periods",
            s.agent_id, p.measure, int(p.scale),
        )
        return None
    return AntifragilityResult(
        days=s.days[both],
        instants=instants,
        global_a=math.fsum(instants.tolist()) / len(instants),
        n_used=len(instants),
    )


@dataclass(frozen=True)
class WindowScaleResults:
    """Everything one (window, scale) case produced."""

    alive_agents: tuple[str, ...]
    satisfactions: dict[str, SatisfactionSeries]
    perturbations: dict[str, PerturbationSeries]
    results: dict[str, dict[str, AntifragilityResult]]


def compute_measures(panel: NormalizedPanel, measures) -> WindowScaleResults:
    """Run the requested measures over one panel and bound-check everything."""
    for m in measures:
        if m not in MEASURES_BY_KIND[panel.market_kind]:
            raise ComputeError(f"measure {m} invalid for {panel.market_kind}")

    satisfactions = {
        aid: satisfaction(aid, panel.agents[aid][PRICE]) for aid in sorted(panel.agents)
    }

    perturbations: dict[str, PerturbationSeries] = {}
    for m in sorted(measures):
        if m == "afp":
            perturbations[m] = perturb_price(panel)
        elif m == "afv" and panel.market_kind == STOCK:
            perturbations[m] = perturb_volume_stock(satisfactions, panel)
        elif m == "afv":
            perturbations[m] = perturb_volume_crypto(panel)
        elif m == "afm":
            perturbations[m] = perturb_marketcap(panel)
        elif m == "afn":
            perturbations[m] = perturb_normalized_price(satisfactions, panel)
        elif m == "afx":
            perturbations[m] = perturb_vix(panel)
        elif m == "af3m":
            perturbations[m] = perturb_three_indexes(panel)

    results: dict[str, dict[str, AntifragilityResult]] = {}
    for m, pser in perturbations.items():
        per_measure = {}
        for aid in sorted(satisfactions):
            result = antifragility(satisfactions[aid], pser)
            if result is not None:
                per_measure[aid] = result
        results[m] = per_measure

    out = WindowScaleResults(
        alive_agents=tuple(sorted(panel.agents)),
        satisfactions=satisfactions,
        perturbations=perturbations,
        results=results,
    )
    check_bounds(out)
    return out


def check_bounds(ws: WindowScaleResults) -> None:
    """Assert the range invariants every run must satisfy."""
    for aid, s in ws.satisfactions.items():
        if len(s.values) and (s.values.min() < -1.0 or s.values.max() > 1.0):
            raise ComputeError(f"satisfaction out of [-1, 1] for agent {aid}")
    for m, p in ws.perturbations.items():
        if len(p.values) and (p.values.min() < 0.0 or p.values.max() > 1.0):
            raise ComputeError(f"perturbation {m} out of [0, 1]")
    for m, per_measure in ws.results.items():
        for aid, r in per_measure.items():
            peak = np.abs(r.instants).max()
            if peak > 1.0:
                raise ComputeError(f"instant antifragility out of [-1, 1]: {m}/{aid}")
            if abs(r.global_a) > peak:
                raise ComputeError(f"global antifragility exceeds instants: {m}/{aid}")
            if r.n_used != len(r.instants) or r.n_used < 1:
                raise ComputeError(f"inconsistent n_used: {m}/{aid}")
