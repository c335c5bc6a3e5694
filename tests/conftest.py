"""Shared builders: plain-row inputs, engine adapters, oracle cross-checks.

Random data is always built from plain (date, open, volume, cap) rows so the
same input feeds both the engine and the brute-force oracle in tests/oracle.py.
"""

import datetime as dt

import numpy as np
import pytest

from antifrag.ingestion import (
    AgentSeries,
    AnalysisWindow,
    IndexSeries,
    slice_window,
    to_dates,
)
from antifrag.measures import compute_measures
from antifrag.performance import PERF_VARIABLES, PerformanceTable
from antifrag.resampling import TimeScale, build_panel

from oracle import oracle_compute

START = dt.date(2015, 1, 5)  # a Monday


def day(n: int) -> dt.date:
    return START + dt.timedelta(days=n)


def make_agent(aid, kind, rows) -> AgentSeries:
    """rows, in date order: (date, open, volume) or (date, open, volume, cap_or_None)."""
    days = np.array([r[0].toordinal() for r in rows], dtype=np.int64)
    assert (days[1:] > days[:-1]).all(), f"agent {aid}: days must strictly increase"
    columns = [[r[1] for r in rows], [r[2] for r in rows],
               [r[3] if len(r) > 3 else None for r in rows]]
    return AgentSeries(aid, kind, days, *(np.array(c, dtype=np.float64) for c in columns))


def series_to_rows(series: AgentSeries):
    """(date, open, volume, cap_or_None) rows as Python objects."""
    caps = [None if np.isnan(c) else c for c in series.cap.tolist()]
    return list(zip(to_dates(series.days), series.open.tolist(),
                    series.volume.tolist(), caps))


def perf_tables(perf: dict, windows) -> dict[str, PerformanceTable]:
    """Each window's performance table from {(window, agent): {name: value}},
    where a name left out or a None value is undefined."""
    rows = {window: {} for window in windows}
    for (window, aid), values in perf.items():
        rows.setdefault(window, {})[aid] = [values.get(name) for name in PERF_VARIABLES]
    return {window: PerformanceTable.from_rows(r) for window, r in rows.items()}


def plain_to_agents(plain: dict, kind: str) -> list[AgentSeries]:
    return [make_agent(aid, kind, rows) for aid, rows in sorted(plain.items())]


def plain_to_indexes(plain: dict) -> list[IndexSeries]:
    return [
        IndexSeries(iid, np.array([d.toordinal() for d, _ in rows], dtype=np.int64),
                    np.array([v for _, v in rows], dtype=np.float64))
        for iid, rows in sorted(plain.items())
    ]


def random_market(rng, kind, n_agents, n_days, start=dt.date(2016, 1, 4),
                  gap_prob=0.07, cap_gap_prob=0.05):
    """Random-walk agents (plus indexes for stocks) as plain structures."""
    dates = [start + dt.timedelta(days=i) for i in range(n_days)]
    agents = {}
    for k in range(n_agents):
        aid = f"A{k:04d}"
        while True:
            born = int(rng.integers(0, max(1, n_days // 3)))
            dead = int(rng.integers(min(n_days - 1, 2 * n_days // 3), n_days))
            span = range(born, dead + 1)
            keep = [i for i in span if rng.random() > gap_prob]
            if len(keep) >= 2:
                break
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.05, len(keep))))
        volumes = 1e5 * np.exp(np.cumsum(rng.normal(0, 0.2, len(keep))))
        caps = 1e8 * np.exp(np.cumsum(rng.normal(0, 0.1, len(keep))))
        rows = []
        for j, i in enumerate(keep):
            cap = None
            if kind == "crypto" and rng.random() > cap_gap_prob:
                cap = float(caps[j])
            rows.append((dates[i], float(prices[j]), float(volumes[j]), cap))
        agents[aid] = rows
    indexes = {}
    if kind == "stock":
        for iid, level in (("VIX", 15.0), ("NASDAQ", 4e3), ("DJI", 1.6e4), ("SPX", 2e3)):
            walk = level * np.exp(np.cumsum(rng.normal(0, 0.02, n_days)))
            indexes[iid] = [(d, float(v)) for d, v in zip(dates, walk)]
    return agents, indexes


def engine_case(agents, indexes, window, scale, measures):
    """Slice, build the panel, and run the requested measures."""
    sliced = [s for s in (slice_window(a, window) for a in agents) if s is not None]
    panel = build_panel(sliced, indexes, window, TimeScale(scale))
    return panel, compute_measures(panel, measures)


def window_over(plain_agents) -> AnalysisWindow:
    days = [r[0] for rows in plain_agents.values() for r in rows]
    return AnalysisWindow(min(days), max(days), "w")


def assert_engine_matches_oracle(plain_agents, plain_indexes, kind, scale,
                                 window, measures, tol):
    """Compare every normalized, satisfaction, perturbation, and
    antifragility value the engine produces against the oracle."""
    agents = plain_to_agents(plain_agents, kind)
    indexes = plain_to_indexes(plain_indexes)
    panel, ws = engine_case(agents, indexes, window, scale, measures)
    ref = oracle_compute(plain_agents, plain_indexes, kind, scale,
                         window.start, window.end, measures)

    assert set(panel.agents) == ref["alive"]
    for aid, channels in panel.agents.items():
        for channel in ("price", "volume", "market_cap"):
            want = ref["normalized"][aid][channel]
            if channel not in channels:
                assert want == {}
                continue
            series = channels[channel]
            got = dict(zip(to_dates(series.days), series.values.tolist()))
            assert got.keys() == want.keys()
            for p in want:
                assert got[p] == pytest.approx(want[p], abs=tol, rel=tol)

    for aid, s in ws.satisfactions.items():
        got = dict(zip(to_dates(s.days), s.values.tolist()))
        want = ref["satisfaction"][aid]
        assert got.keys() == want.keys()
        for p in want:
            assert got[p] == pytest.approx(want[p], abs=tol, rel=tol)

    assert set(ws.perturbations) == set(ref["perturbation"])
    for m, p in ws.perturbations.items():
        got = dict(zip(to_dates(p.days), p.values.tolist()))
        want = ref["perturbation"][m]
        assert got.keys() == want.keys()
        for t in want:
            assert got[t] == pytest.approx(want[t], abs=tol, rel=tol)

    for m, per_agent in ws.results.items():
        want_measure = ref["results"][m]
        assert set(per_agent) == set(want_measure)
        for aid, result in per_agent.items():
            want_global, want_n, want_instants = want_measure[aid]
            assert result.n_used == want_n
            assert result.global_a == pytest.approx(want_global, abs=tol, rel=tol)
            got = dict(zip(to_dates(result.days), result.instants.tolist()))
            assert got.keys() == want_instants.keys()
            for t in want_instants:
                assert got[t] == pytest.approx(want_instants[t], abs=tol, rel=tol)
