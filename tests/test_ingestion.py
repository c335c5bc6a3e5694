import datetime as dt

import pytest

from antifrag import fixture
from antifrag.errors import IngestionError
from antifrag.ingestion import (
    AgentSeries,
    AnalysisWindow,
    IndexSeries,
    agent_csv_text,
    load_agent_series,
    load_index_series,
    load_top_performers,
    slice_window,
    write_agent_csv,
)

from conftest import day, make_agent, series_to_rows


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_two_rows(tmp_path):
    path = write(tmp_path, "AAPL.csv",
                 "date,open,volume\n2014-01-02,10.0,100.0\n2014-01-03,11.0,90.0\n")
    series = load_agent_series(path, "stock")
    assert series.agent_id == "AAPL"
    assert series.market_kind == "stock"
    rows = series_to_rows(series)
    assert [r[0] for r in rows] == [dt.date(2014, 1, 2), dt.date(2014, 1, 3)]
    assert [r[1] for r in rows] == [10.0, 11.0]
    assert all(r[3] is None for r in rows)


def test_rows_sorted_by_date(tmp_path):
    path = write(tmp_path, "X.csv",
                 "date,open,volume\n2014-01-03,11.0,90.0\n2014-01-02,10.0,100.0\n")
    series = load_agent_series(path, "stock")
    assert [r[0] for r in series_to_rows(series)] == [dt.date(2014, 1, 2), dt.date(2014, 1, 3)]


def test_duplicate_date_rejected(tmp_path):
    path = write(tmp_path, "X.csv",
                 "date,open,volume\n2014-01-02,10,100\n2014-01-02,11,90\n")
    with pytest.raises(IngestionError, match="2014-01-02"):
        load_agent_series(path, "stock")


def test_stock_with_market_cap_rejected(tmp_path):
    path = write(tmp_path, "X.csv",
                 "date,open,volume,market_cap\n2014-01-02,10,100,5e9\n")
    with pytest.raises(IngestionError, match="market_cap not allowed for stocks"):
        load_agent_series(path, "stock")


def test_crypto_market_cap_optional_per_row(tmp_path):
    path = write(tmp_path, "C.csv",
                 "date,open,volume,market_cap\n"
                 "2014-01-02,10,100,5000\n2014-01-03,11,90,\n2014-01-04,12,80,5200\n")
    series = load_agent_series(path, "crypto")
    assert [r[3] for r in series_to_rows(series)] == [5000.0, None, 5200.0]


def test_malformed_row_names_file_line_field(tmp_path):
    path = write(tmp_path, "X.csv", "date,open,volume\n2014-01-02,ten,100\n")
    with pytest.raises(IngestionError) as err:
        load_agent_series(path, "stock")
    message = str(err.value)
    assert "X.csv" in message
    assert "line 2" in message
    assert "open" in message


def test_negative_value_rejected(tmp_path):
    path = write(tmp_path, "X.csv", "date,open,volume\n2014-01-02,-1,100\n")
    with pytest.raises(IngestionError, match="negative open"):
        load_agent_series(path, "stock")


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "X.csv", "")
    with pytest.raises(IngestionError, match="empty"):
        load_agent_series(path, "stock")


def test_header_only_rejected(tmp_path):
    path = write(tmp_path, "X.csv", "date,open,volume\n")
    with pytest.raises(IngestionError, match="no data rows"):
        load_agent_series(path, "stock")


def test_load_index(tmp_path):
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-02,14.5\n2014-01-03,15.0\n")
    index = load_index_series(path, "VIX")
    assert index.index_id == "VIX"
    assert index.values == ((dt.date(2014, 1, 2), 14.5), (dt.date(2014, 1, 3), 15.0))


def test_index_out_of_order_rejected(tmp_path):
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-03,15.0\n2014-01-02,14.5\n")
    with pytest.raises(IngestionError, match="2014-01-02"):
        load_index_series(path, "VIX")


def test_index_empty_rejected(tmp_path):
    path = write(tmp_path, "vix.csv", "date,level\n")
    with pytest.raises(IngestionError, match="no observations"):
        load_index_series(path, "VIX")


def test_index_unknown_id_rejected(tmp_path):
    path = write(tmp_path, "x.csv", "date,level\n2014-01-02,1\n")
    with pytest.raises(IngestionError, match="unknown index id"):
        load_index_series(path, "FTSE")


def test_index_negative_level_rejected(tmp_path):
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-02,-3\n")
    with pytest.raises(IngestionError, match="negative level"):
        load_index_series(path, "VIX")


def test_load_top_performers(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": ["AAPL", "NFLX"]}')
    lists = load_top_performers(path)
    assert len(lists) == 1
    assert lists[0].year == 2014
    assert lists[0].agent_ids == frozenset({"AAPL", "NFLX"})
    assert lists[0].source_label == "top.json"


def test_top_performers_duplicate_year_unioned(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": ["A"], "2014": ["B"]}')
    lists = load_top_performers(path)
    assert len(lists) == 1
    assert lists[0].agent_ids == frozenset({"A", "B"})


def test_top_performers_empty_list_rejected(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": []}')
    with pytest.raises(IngestionError, match="empty top-performer list"):
        load_top_performers(path)


def test_top_performers_bad_year_rejected(tmp_path):
    path = write(tmp_path, "top.json", '{"twenty": ["A"]}')
    with pytest.raises(IngestionError, match="bad year"):
        load_top_performers(path)


def test_slice_window_picks_inside_dates():
    rows = [(dt.date(2010 + y, 6, 1 + i), 10 + i, 100) for y in range(8) for i in range(3)]
    series = make_agent("X", "stock", rows)
    window = AnalysisWindow(dt.date(2014, 1, 1), dt.date(2014, 12, 31), "2014")
    sliced = slice_window(series, window)
    assert sliced is not None
    assert all(r[0].year == 2014 for r in series_to_rows(sliced))
    assert len(series_to_rows(sliced)) == 3


def test_slice_window_dead_agent_is_none():
    series = make_agent("X", "stock", [(dt.date(2015, 3, 1), 10, 100),
                                       (dt.date(2015, 3, 2), 11, 100)])
    window = AnalysisWindow(dt.date(2014, 1, 1), dt.date(2014, 12, 31), "2014")
    assert slice_window(series, window) is None


def test_slice_window_single_observation_is_none():
    series = make_agent("X", "stock", [(dt.date(2013, 12, 31), 9, 100),
                                       (dt.date(2014, 6, 1), 10, 100)])
    window = AnalysisWindow(dt.date(2014, 1, 1), dt.date(2014, 12, 31), "2014")
    assert slice_window(series, window) is None


def test_round_trip_serialization(tmp_path):
    text = ("date,open,volume,market_cap\n"
            "2014-01-02,10.25,100.0,5000.0\n"
            "2014-01-03,11.5,90.0,\n"
            "2014-01-04,12.0,80.0,5200.0\n")
    path = write(tmp_path, "C.csv", text)
    series = load_agent_series(path, "crypto")
    assert agent_csv_text(series) == text

    out = tmp_path / "copy.csv"
    write_agent_csv(series, out)
    assert out.read_text() == text


def test_fixture_series_round_trip_byte_stable(tmp_path):
    for series in fixture.stock_agents() + fixture.crypto_agents():
        text = agent_csv_text(series)
        path = write(tmp_path, f"{series.agent_id}.csv", text)
        loaded = load_agent_series(path, series.market_kind)
        assert agent_csv_text(loaded) == text
        assert series_to_rows(loaded) == series_to_rows(series)
    # numbers reach the text as Python floats, never as numpy reprs
    assert "np." not in agent_csv_text(fixture.crypto_agents()[0])


@pytest.mark.parametrize("stem", ["X,Y", "a b", 'q"t', "é"])
def test_unsafe_agent_id_rejected(tmp_path, stem):
    path = write(tmp_path, f"{stem}.csv",
                 "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n")
    with pytest.raises(IngestionError, match="agent id"):
        load_agent_series(path, "stock")


def test_safe_agent_id_charset_accepted(tmp_path):
    path = write(tmp_path, "BRK.B_x-1.csv",
                 "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n")
    assert load_agent_series(path, "stock").agent_id == "BRK.B_x-1"


def test_first_bad_line_reported_in_file_order(tmp_path):
    # a negative value on line 3 comes before the malformed date on line 4
    path = write(tmp_path, "X.csv",
                 "date,open,volume\n2014-01-02,10,100\n2014-01-03,-1,90\n"
                 "2014-13-01,11,90\n")
    with pytest.raises(IngestionError, match="line 3: negative open"):
        load_agent_series(path, "stock")


def test_non_finite_market_cap_rejected_blank_accepted(tmp_path):
    path = write(tmp_path, "C.csv",
                 "date,open,volume,market_cap\n"
                 "2014-01-02,10,100,\n2014-01-03,11,90,nan\n")
    with pytest.raises(IngestionError, match="line 3: non-finite market_cap"):
        load_agent_series(path, "crypto")


@pytest.mark.parametrize("text", ["20140103", "2014-W01-5", "2014-1-3", "2014-01-03T00"])
def test_only_yyyy_mm_dd_dates_accepted(tmp_path, text):
    path = write(tmp_path, "X.csv",
                 f"date,open,volume\n2014-01-02,10,100\n{text},11,90\n")
    with pytest.raises(IngestionError, match=f"line 3: bad date '{text}'"):
        load_agent_series(path, "stock")
    index = write(tmp_path, "vix.csv", f"date,level\n2014-01-02,14.5\n{text},15.0\n")
    with pytest.raises(IngestionError, match=f"line 3: bad date '{text}'"):
        load_index_series(index, "VIX")


def test_byte_order_mark_accepted(tmp_path):
    text = "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n"
    plain = load_agent_series(write(tmp_path, "A.csv", text), "stock")
    path = tmp_path / "B.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert series_to_rows(load_agent_series(path, "stock")) == series_to_rows(plain)
    index = tmp_path / "vix.csv"
    index.write_bytes(b"\xef\xbb\xbfdate,level\n2014-01-02,14.5\n")
    assert load_index_series(index, "VIX").values == ((dt.date(2014, 1, 2), 14.5),)


def test_empty_lines_at_end_of_file_accepted(tmp_path):
    text = "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n"
    plain = load_agent_series(write(tmp_path, "A.csv", text), "stock")
    for i, tail in enumerate(["\n", "\n\n\n", "\r\n"]):
        padded = load_agent_series(write(tmp_path, f"P{i}.csv", text + tail), "stock")
        assert series_to_rows(padded) == series_to_rows(plain)
    index = write(tmp_path, "vix.csv", "date,level\n2014-01-02,14.5\n\n")
    assert len(load_index_series(index, "VIX")) == 1


def test_empty_line_before_a_row_rejected(tmp_path):
    path = write(tmp_path, "X.csv",
                 "date,open,volume\n2014-01-02,10,100\n\n2014-01-03,11,90\n")
    with pytest.raises(IngestionError, match="line 3: expected 3 fields, got 0"):
        load_agent_series(path, "stock")
    path = write(tmp_path, "Y.csv", "date,open,volume\n\n\n")
    with pytest.raises(IngestionError, match="no data rows"):
        load_agent_series(path, "stock")


def test_loading_is_order_independent(tmp_path):
    a = write(tmp_path, "A.csv", "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n")
    b = write(tmp_path, "B.csv", "date,open,volume\n2014-01-02,20,200\n2014-01-03,21,190\n")
    first = [load_agent_series(p, "stock") for p in (a, b)]
    second = [load_agent_series(p, "stock") for p in (b, a)]
    assert ({s.agent_id: series_to_rows(s) for s in first}
            == {s.agent_id: series_to_rows(s) for s in second})


def test_observation_dates_strictly_increasing_enforced():
    with pytest.raises(IngestionError, match="strictly increasing"):
        AgentSeries.from_rows("X", "stock", [
            (dt.date(2014, 1, 3), 10.0, 100.0, None),
            (dt.date(2014, 1, 2), 11.0, 100.0, None),
        ])


def test_values_above_1e100_rejected_1e100_accepted(tmp_path):
    header = "date,open,volume,market_cap\n"
    path = write(tmp_path, "X.csv", header + "2014-01-02,1e100,1e100,1e100\n")
    assert load_agent_series(path, "crypto").cap.tolist() == [1e100]
    for field, cells in (("open", "1.0000000000000002e100,1,1"), ("volume", "1,1e101,"),
                         ("market_cap", "1,1,1e308")):
        path = write(tmp_path, "Y.csv", f"{header}2014-01-02,{cells}\n")
        with pytest.raises(IngestionError, match=f"line 2: {field} value above 1e\\+100"):
            load_agent_series(path, "crypto")
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-02,1\n2014-01-03,1e101\n")
    with pytest.raises(IngestionError, match="line 3: level value above 1e\\+100"):
        load_index_series(path, "VIX")


def test_from_rows_rejects_values_above_1e100():
    rows = [(dt.date(2014, 1, 2), 1e100, 1e100, 1e100),
            (dt.date(2014, 1, 3), 1.0, 1.0, 1e101)]
    with pytest.raises(IngestionError, match=r"agent X: value above 1e\+100 at 2014-01-03"):
        AgentSeries.from_rows("X", "crypto", rows)
    with pytest.raises(IngestionError, match=r"index VIX: value above 1e\+100 at 2014-01-02"):
        IndexSeries.from_rows("VIX", [(dt.date(2014, 1, 2), float("inf"))])
    assert len(AgentSeries.from_rows("X", "crypto", rows[:1])) == 1


def test_window_start_after_end_rejected():
    with pytest.raises(IngestionError, match="start"):
        AnalysisWindow(dt.date(2015, 1, 1), dt.date(2014, 1, 1), "bad")


def test_day_helper_is_monday():
    assert day(0).weekday() == 0
