import datetime as dt

import pytest

from antifrag.ingestion import AnalysisWindow, TopPerformerList
from antifrag.performance import compute_performance, top_ids_for
from antifrag.pipeline import _render_performance, fmt

from conftest import day, make_agent

WINDOW = AnalysisWindow(day(0), day(30), "w")


def record_for(rows, kind="stock", window=WINDOW, full_start=None):
    series = make_agent("X", kind, rows)
    return compute_performance(series, full_start or series.first_date, window)


def test_price_metrics_exact():
    r = record_for([(day(i), p, 100) for i, p in enumerate([10, 20, 15])])
    assert r["pct_dlt_pr"] == pytest.approx((20 - 10) / 15, abs=1e-15)
    assert r["pct_pr_f_i"] == pytest.approx((15 - 10) / 15, abs=1e-15)
    assert r["pr_mea"] == 15.0


def test_constant_channel_metrics_are_zero():
    r = record_for([(day(i), 7, 100) for i in range(4)])
    assert r["pct_dlt_pr"] == 0.0
    assert r["pct_pr_f_i"] == 0.0
    assert r["pr_std"] == 0.0
    assert r["pr_mea"] == 7.0


def test_age_days_uses_full_history_start():
    window = AnalysisWindow(dt.date(2014, 1, 1), dt.date(2014, 12, 31), "2014")
    r = record_for(
        [(dt.date(2014, 3, 1), 10, 100), (dt.date(2014, 3, 2), 11, 100)],
        window=window,
        full_start=dt.date(2013, 1, 1),
    )
    assert r["age_days"] == 729


def test_zero_mean_channel_is_undefined():
    r = record_for([(day(0), 10, 0), (day(1), 11, 0)])
    assert r["vl_mea"] == 0.0
    assert r["pct_dlt_vl"] is None
    assert r["pct_vl_f_i"] is None


def test_market_cap_metrics_absent_for_stocks():
    r = record_for([(day(0), 10, 1), (day(1), 11, 2)])
    assert r["mk_mea"] is None
    assert r["pct_dlt_mk"] is None
    assert r["pct_mk_f_i"] is None


def test_market_cap_metrics_for_crypto():
    rows = [(day(0), 10, 1, 100), (day(1), 11, 2, 300), (day(2), 12, 3, 200)]
    r = record_for(rows, kind="crypto")
    assert r["mk_mea"] == 200.0
    assert r["pct_dlt_mk"] == 1.0
    assert r["pct_mk_f_i"] == 0.5


def test_market_cap_ignores_gaps():
    rows = [(day(0), 10, 1, 100), (day(1), 11, 2, None), (day(2), 12, 3, 200)]
    r = record_for(rows, kind="crypto")
    assert r["mk_mea"] == 150.0


def test_spread_dominates_endpoint_change():
    rows = [(day(i), p, 100) for i, p in enumerate([10, 35, 4, 18, 22])]
    r = record_for(rows)
    assert r["pct_dlt_pr"] >= abs(r["pct_pr_f_i"])


def test_population_std():
    r = record_for([(day(i), p, 100) for i, p in enumerate([2, 4, 4, 4, 5, 5, 7, 9])])
    assert r["pr_std"] == 2.0
    assert r["pr_mea"] == 5.0


def test_metrics_use_raw_not_normalized_values():
    small = record_for([(day(i), p, 100) for i, p in enumerate([10, 20, 15])])
    big = record_for([(day(i), p * 1000, 100) for i, p in enumerate([10, 20, 15])])
    assert big["pr_mea"] == 1000 * small["pr_mea"]
    assert big["pct_dlt_pr"] == pytest.approx(small["pct_dlt_pr"], abs=1e-15)


def test_top_performer_flag_exact_match():
    rows = [(day(0), 10, 1), (day(1), 11, 2)]
    perf_text = {("w", "X"): {n: None if v is None else fmt(v)
                              for n, v in record_for(rows).items()}}

    def flag(top):
        text = _render_performance(perf_text, {"w": top})
        return text.splitlines()[1].split(",")[-1]

    assert flag(frozenset({"X"})) == "true"
    assert flag(frozenset({"x"})) == "false"
    assert flag(frozenset({"XY"})) == "false"


def test_top_ids_for_matches_end_year():
    lists = [
        TopPerformerList(2014, frozenset({"A"}), "t"),
        TopPerformerList(2015, frozenset({"B"}), "t"),
    ]
    window = AnalysisWindow(dt.date(2015, 1, 1), dt.date(2015, 11, 30), "2015")
    assert top_ids_for(window, lists) == frozenset({"B"})


def test_top_ids_for_missing_year_warns_not_raises(caplog):
    lists = [TopPerformerList(2014, frozenset({"A"}), "t")]
    window = AnalysisWindow(dt.date(2016, 1, 1), dt.date(2016, 12, 31), "2016")
    with caplog.at_level("WARNING"):
        assert top_ids_for(window, lists) == frozenset()
    assert any("2016" in r.message for r in caplog.records)


def test_top_ids_for_no_lists_is_empty():
    window = AnalysisWindow(dt.date(2016, 1, 1), dt.date(2016, 12, 31), "2016")
    assert top_ids_for(window, None) == frozenset()
