"""Property tests for the columnar kernels: load, slice, resample.

Random agents with random gap patterns and blank market caps go through the
CSV loader and the panel builder. Resampled volumes must equal a per-period
``np.sum`` loop bit for bit, and every panel must match the brute-force
oracle.
"""

import datetime as dt
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antifrag.ingestion import (
    STOCK,
    AnalysisWindow,
    agent_csv_text,
    load_agent_series,
    slice_window,
)
from antifrag.measures import MEASURES_BY_KIND
from antifrag.resampling import VOLUME, TimeScale, build_panel

from conftest import assert_engine_matches_oracle, make_agent, series_to_rows
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
        assert channels[VOLUME].periods == tuple(sorted(buckets))
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
