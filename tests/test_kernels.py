"""Property tests for the columnar kernels: load, slice, resample, join.

Random agents with random gap patterns and blank market caps go through the
CSV loader and the panel builder. Resampled volumes must equal a per-period
``np.sum`` loop bit for bit, and every panel must match the brute-force
oracle. The measures' array joins must equal a dict-per-period reference
bit for bit.
"""

import datetime as dt
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antifrag.ingestion import (
    STOCK,
    AnalysisWindow,
    agent_csv_text,
    load_agent_series,
    slice_window,
    to_dates,
)
from antifrag import measures
from antifrag.measures import MEASURES_BY_KIND
from antifrag.resampling import VOLUME, TimeScale, build_panel

from conftest import (
    assert_engine_matches_oracle,
    engine_case,
    make_agent,
    plain_to_agents,
    plain_to_indexes,
    series_to_rows,
)
from oracle import oracle_compute, period_of

START = dt.date(2015, 12, 21)  # a Monday, so weeks and months straddle a year end
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WIDE = st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False)
MODERATE = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def markets(draw, values):
    """(kind, scale, {agent_id: rows}, {index_id: rows}) with random gaps."""
    kind = draw(st.sampled_from(["stock", "crypto"]))
    scale = draw(st.sampled_from([0, 1, 2]))
    agents = {}
    for k in range(draw(st.integers(1, 5))):
        # dense runs exercise long weekly/monthly buckets, sparse ones gaps
        offsets = draw(st.one_of(
            st.sets(st.integers(0, 150), min_size=2, max_size=40),
            st.builds(lambda a, n: set(range(a, a + n)),
                      st.integers(0, 60), st.integers(2, 90)),
        ))
        rows = []
        for i in sorted(offsets):
            cap = None
            if kind == "crypto":
                cap = draw(st.one_of(st.none(), values))
            rows.append((START + dt.timedelta(days=i), draw(values), draw(values), cap))
        agents[f"A{k}"] = rows
    indexes = {}
    if kind == STOCK:
        days = sorted({r[0] for rows in agents.values() for r in rows})
        for iid in ("VIX", "NASDAQ", "DJI", "SPX"):
            indexes[iid] = [(d, float(10 + (3 * j) % 7)) for j, d in enumerate(days)]
    return kind, scale, agents, indexes


def loaded(agents, kind):
    """Write each agent as CSV with its rows shuffled, then load it back."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for aid, rows in sorted(agents.items()):
            header, *lines = agent_csv_text(make_agent(aid, kind, rows)).splitlines()
            random.Random(aid).shuffle(lines)
            path = Path(tmp) / f"{aid}.csv"
            path.write_text("\n".join([header] + lines) + "\n")
            out.append(load_agent_series(path, kind))
    return out


def window_of(agents):
    days = [r[0] for rows in agents.values() for r in rows]
    return AnalysisWindow(min(days), max(days), "w")


def alive(agents, scale):
    return {
        aid for aid, rows in agents.items()
        if len({period_of(r[0], scale) for r in rows}) >= 2
    }


@SETTINGS
@given(markets(WIDE))
def test_resampled_volumes_equal_per_period_sums_bit_for_bit(market):
    kind, scale, agents, _ = market
    assume(alive(agents, scale))
    series = loaded(agents, kind)
    assert [series_to_rows(s) for s in series] == [
        [(d, o, v, c) for d, o, v, c in agents[s.agent_id]] for s in series
    ]
    window = window_of(agents)
    sliced = [s for s in (slice_window(a, window) for a in series) if s is not None]
    panel = build_panel(sliced, [], window, TimeScale(scale))

    assert set(panel.agents) == alive(agents, scale)
    for aid, channels in panel.agents.items():
        buckets = {}
        for d, _, volume, _ in agents[aid]:
            buckets.setdefault(period_of(d, scale), []).append(volume)
        want = [float(np.sum(list(buckets[p]))) for p in sorted(buckets)]
        assert to_dates(channels[VOLUME].days) == tuple(sorted(buckets))
        assert channels[VOLUME].raw.tolist() == want


@SETTINGS
@given(markets(MODERATE))
def test_engine_matches_oracle_on_random_gaps_and_blank_caps(market):
    kind, scale, agents, indexes = market
    assume(alive(agents, scale))
    window = window_of(agents)
    # a measure with no defined period is an error for the engine and an
    # empty series for the oracle; compare the measures that are defined
    ref = oracle_compute(agents, indexes, kind, scale, window.start, window.end,
                         MEASURES_BY_KIND[kind])
    measures = [m for m in MEASURES_BY_KIND[kind] if ref["perturbation"][m]]
    assert_engine_matches_oracle(agents, indexes, kind, scale, window, measures,
                                 tol=1e-9)


def by_period(days, values) -> dict[int, list[float]]:
    buckets = {}
    for t, v in zip(days.tolist(), values.tolist()):
        buckets.setdefault(t, []).append(v)
    return buckets


@SETTINGS
@given(markets(MODERATE), st.data())
def test_joins_equal_dict_per_period_reference_bit_for_bit(market, data):
    kind, scale, agents, indexes = market
    assume(alive(agents, scale))
    # each index gets its own levels and gaps, so the af3m join is not trivial
    for iid, rows in indexes.items():
        drop = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=len(rows) - 2))
        indexes[iid] = [(d, data.draw(MODERATE)) for j, (d, _) in enumerate(rows)
                        if j not in drop]
    window = window_of(agents)
    ref = oracle_compute(agents, indexes, kind, scale, window.start, window.end,
                         MEASURES_BY_KIND[kind])
    means = []
    real_system_mean = measures._system_mean

    def recorded(measure, days, values):
        out = real_system_mean(measure, days, values)
        means.append(((days, values), out))
        return out

    with mock.patch.object(measures, "_system_mean", recorded):
        panel, ws = engine_case(
            plain_to_agents(agents, kind), plain_to_indexes(indexes), window, scale,
            [m for m in MEASURES_BY_KIND[kind] if ref["perturbation"][m]],
        )

    for (agent_days, agent_values), out in means:
        buckets = by_period(agent_days, agent_values)
        assert out.days.tolist() == sorted(buckets)
        assert out.values.tolist() == [math.fsum(buckets[t]) / len(buckets[t])
                                       for t in sorted(buckets)]

    if "af3m" in ws.perturbations:
        diffs = [by_period(index.days[1:], np.abs(np.diff(index.values)))
                 for index in (panel.indexes[i] for i in ("NASDAQ", "DJI", "SPX"))]
        common = sorted(set(diffs[0]) & set(diffs[1]) & set(diffs[2]))
        p = ws.perturbations["af3m"]
        assert p.days.tolist() == common
        assert p.values.tolist() == [math.fsum(d[t][0] for d in diffs) / 3.0
                                     for t in common]

    for m, per_agent in ws.results.items():
        p = ws.perturbations[m]
        pmap = dict(zip(p.days.tolist(), p.values.tolist()))
        for aid, s in ws.satisfactions.items():
            joined = [(t, sv * pmap[t]) for t, sv in zip(s.days.tolist(), s.values.tolist())
                      if t in pmap]
            if not joined:
                assert aid not in per_agent
                continue
            result = per_agent[aid]
            instants = [v for _, v in joined]
            assert result.days.tolist() == [t for t, _ in joined]
            assert result.instants.tolist() == instants
            assert result.n_used == len(instants)
            assert result.global_a == math.fsum(instants) / len(instants)
