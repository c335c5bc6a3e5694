import datetime as dt

import numpy as np
import pytest

from antifrag import pipeline
from antifrag.errors import ComputeError
from antifrag.ingestion import AnalysisWindow, to_dates
from antifrag.resampling import (
    TimeScale,
    build_panel,
    minmax_normalize,
    period_starts,
)

from conftest import day, make_agent, plain_to_indexes

WINDOW = AnalysisWindow(day(0), day(60), "w")


def period_start(date, scale):
    return to_dates(period_starts(np.array([date.toordinal()]), scale))[0]


def resample(rows, scale, kind="stock"):
    """One agent's resampled channels: {channel: (periods, raw values)}."""
    panel = build_panel([make_agent("X", kind, rows)], [], WINDOW, scale)
    return {
        channel: (to_dates(series.days), series.raw.tolist())
        for channel, series in panel.agents["X"].items()
    }


def test_period_start_daily_identity():
    assert period_start(day(3), TimeScale.DAILY) == day(3)


def test_period_start_weekly_is_iso_monday():
    # day(0) is a Monday; the whole week maps to it
    for offset in range(7):
        assert period_start(day(offset), TimeScale.WEEKLY) == day(0)
    assert period_start(day(7), TimeScale.WEEKLY) == day(7)


def test_period_start_weekly_across_year_boundary():
    # 2016-01-01 is a Friday inside the ISO week starting 2015-12-28
    assert period_start(dt.date(2016, 1, 1), TimeScale.WEEKLY) == dt.date(2015, 12, 28)


def test_period_start_monthly():
    assert period_start(dt.date(2015, 2, 27), TimeScale.MONTHLY) == dt.date(2015, 2, 1)


@pytest.mark.parametrize("scale", [3, -1])
def test_period_starts_rejects_an_unknown_scale(scale):
    with pytest.raises(ValueError, match=f"^unknown time scale {scale}$"):
        period_starts(np.array([day(0).toordinal()]), scale)


def test_daily_resample_is_identity():
    days = tuple(day(i) for i in range(5))
    out = resample([(day(i), 10 + i, 100 + i) for i in range(5)], TimeScale.DAILY)
    assert out == {
        "price": (days, [10.0 + i for i in range(5)]),
        "volume": (days, [100.0 + i for i in range(5)]),
    }


def test_weekly_resample_first_open_summed_volume():
    # 10 consecutive trading days: 4 in the first ISO week, 6 in the second
    rows = [(day(i), 10 + i, 1) for i in range(4)]
    rows += [(day(7 + i), 20 + i, 2) for i in range(6)]
    out = resample(rows, TimeScale.WEEKLY)
    assert out["price"] == ((day(0), day(7)), [10, 20])
    assert out["volume"] == ((day(0), day(7)), [4, 12])


def test_resample_single_period_is_none():
    rows = [(dt.date(2015, 3, 2 + i), 10, 100) for i in range(5)]
    with pytest.raises(ComputeError, match="empty panel"):
        resample(rows, TimeScale.MONTHLY)


def test_resample_market_cap_from_first_observation():
    rows = [(day(0), 10, 1, 500), (day(1), 11, 1, None), (day(7), 12, 1, 700)]
    out = resample(rows, TimeScale.WEEKLY, kind="crypto")
    assert out["market_cap"][1] == [500.0, 700.0]


def test_minmax_basic():
    assert minmax_normalize([10.0, 20.0, 15.0]).tolist() == [0.0, 1.0, 0.5]


def test_minmax_constant_becomes_half():
    assert minmax_normalize([7.0, 7.0, 7.0]).tolist() == [0.5, 0.5, 0.5]


def test_minmax_two_points():
    assert minmax_normalize([0.0, 1.0]).tolist() == [0.0, 1.0]


def test_minmax_idempotent_on_unit_span():
    rng = np.random.default_rng(7)
    values = rng.random(40)
    values[0], values[1] = 0.0, 1.0
    once = minmax_normalize(values)
    assert minmax_normalize(once).tolist() == once.tolist()


def test_minmax_affine_invariance():
    rng = np.random.default_rng(8)
    values = rng.normal(50, 10, 30)
    base = minmax_normalize(values)
    shifted = minmax_normalize(3.7 * values + 11.0)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_panel_constant_agent_normalizes_to_half():
    agents = [
        make_agent("C", "stock", [(day(i), 50.0, 100 + i) for i in range(5)]),
        make_agent("D", "stock", [(day(i), 10 + i, 100) for i in range(5)]),
    ]
    panel = build_panel(agents, [], WINDOW, TimeScale.DAILY)
    assert panel.agents["C"]["price"].values.tolist() == [0.5] * 5


def test_panel_axis_is_union_of_disjoint_grids():
    a = make_agent("A", "stock", [(day(0), 10, 1), (day(2), 11, 1)])
    b = make_agent("B", "stock", [(day(1), 20, 1), (day(3), 21, 1)])
    panel = build_panel([a, b], [], WINDOW, TimeScale.DAILY)
    for text in pipeline._panel_dumps(panel).values():
        periods = [line.split(",")[0] for line in text.splitlines()[1:]]
        assert periods == [day(i).isoformat() for i in range(4)]


def test_panel_drops_agents_below_two_periods():
    a = make_agent("A", "stock", [(day(0), 10, 1), (dt.date(2015, 2, 5), 11, 1)])
    b = make_agent("B", "stock", [(dt.date(2015, 3, 2), 10, 1), (dt.date(2015, 3, 3), 11, 1)])
    window = AnalysisWindow(day(0), dt.date(2015, 4, 1), "w")
    panel = build_panel([a, b], [], window, TimeScale.MONTHLY)
    assert "B" not in panel.agents
    assert "A" in panel.agents


def test_empty_panel_is_an_error():
    a = make_agent("A", "stock", [(day(0), 10, 1), (day(1), 11, 1)])
    with pytest.raises(ComputeError, match="empty panel"):
        build_panel([a], [], WINDOW, TimeScale.WEEKLY)


def test_panel_values_inside_unit_interval():
    rng = np.random.default_rng(9)
    agents = [
        make_agent(
            f"A{k}", "stock",
            [(day(i), float(p), float(v))
             for i, p, v in zip(range(30),
                                50 * np.exp(rng.normal(0, 0.1, 30)),
                                1e5 * np.exp(rng.normal(0, 0.3, 30)))],
        )
        for k in range(4)
    ]
    for scale in TimeScale:
        panel = build_panel(agents, [], WINDOW, scale)
        for channels in panel.agents.values():
            for series in channels.values():
                assert series.values.min() >= 0.0
                assert series.values.max() <= 1.0


def test_panel_never_invents_periods():
    a = make_agent("A", "stock", [(day(0), 10, 1), (day(3), 11, 1), (day(14), 12, 1)])
    panel = build_panel([a], [], WINDOW, TimeScale.DAILY)
    assert to_dates(panel.agents["A"]["price"].days) == (day(0), day(3), day(14))


def test_index_resampled_and_normalized():
    plain = {"VIX": [(day(i), 10.0 + i) for i in range(10)]}
    panel = build_panel(
        [make_agent("A", "stock", [(day(i), 10 + i, 1) for i in range(10)])],
        plain_to_indexes(plain),
        WINDOW,
        TimeScale.WEEKLY,
    )
    vix = panel.indexes["VIX"]
    assert to_dates(vix.days) == (day(0), day(7))
    assert vix.raw.tolist() == [10.0, 17.0]
    assert vix.values.tolist() == [0.0, 1.0]
