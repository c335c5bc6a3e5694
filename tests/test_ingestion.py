import datetime as dt
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antifrag import fixture, ingestion
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
)

import csv_reference
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
    assert load_top_performers(path) == {2014: frozenset({"AAPL", "NFLX"})}


def test_top_performers_duplicate_year_unioned(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": ["A"], "2014": ["B"]}')
    assert load_top_performers(path) == {2014: frozenset({"A", "B"})}


def test_top_performers_year_spelled_twice_unioned(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": ["A"], " 2014": ["B"], "2015": ["C"]}')
    assert load_top_performers(path) == {2014: frozenset({"A", "B"}),
                                         2015: frozenset({"C"})}


def test_top_performers_empty_list_rejected(tmp_path):
    path = write(tmp_path, "top.json", '{"2014": []}')
    with pytest.raises(IngestionError, match="empty top-performer list"):
        load_top_performers(path)


def test_top_performers_bad_year_rejected(tmp_path):
    path = write(tmp_path, "top.json", '{"twenty": ["A"]}')
    with pytest.raises(IngestionError, match="bad year"):
        load_top_performers(path)


@pytest.mark.parametrize("text", [
    '{"2014": ["XCOIN"], "2014": []}',
    '{"2014": [], " 2014": ["XCOIN"]}',
    '{" 2014": [], "2014": ["XCOIN"], "2014": []}',
])
def test_top_performers_empty_list_joins_its_year_union(tmp_path, text):
    # one rule for every spelling of a year: only an empty union is an error
    path = write(tmp_path, "top.json", text)
    assert load_top_performers(path) == {2014: frozenset({"XCOIN"})}


@pytest.mark.parametrize("text", ['{"2014": [], "2014": []}', '{"2014": [], " 2014": []}',
                                  '{"2015": ["A"], "2014": []}'])
def test_top_performers_empty_union_rejected(tmp_path, text):
    path = write(tmp_path, "top.json", text)
    with pytest.raises(IngestionError) as info:
        load_top_performers(path)
    assert str(info.value) == f"{path}: empty top-performer list for year 2014"


@pytest.mark.parametrize("text, message", [
    ('{"2014": ["A"]', "invalid JSON: Expecting ',' delimiter: line 1 column 15 (char 14)"),
    ('["A"]', "expected an object mapping year to id list"),
    ('{"2014": ["A"], "2014": "B"}', "year 2014: expected a list of ids"),
    ('{"2014": {"A": 1}, "2014": ["B"]}', "year 2014: expected a list of ids"),
    ('{"2014": ["A"], " 2014": "B"}', "year  2014: expected a list of ids"),
    ('{"2014": ["A", 1]}', "year 2014: expected a list of ids"),
    ('{"2014": ["A"], "2014": [null]}', "year 2014: expected a list of ids"),
    ('[["2014", ["A"]]]', "expected an object mapping year to id list"),
    ('{"2014": [{"A": "B"}]}', "year 2014: expected a list of ids"),
    ('{"x": ["A"], "2014": ["A"], "2014": "B"}', "bad year key 'x'"),
], ids=["invalid-json", "not-an-object", "repeated-key-not-a-list",
        "repeated-key-first-not-a-list", "respelled-key-not-a-list", "id-not-a-string",
        "repeated-key-id-not-a-string", "array-of-pairs", "id-an-object",
        "first-problem-in-file-order"])
def test_top_performers_json_errors(tmp_path, text, message):
    path = write(tmp_path, "top.json", text)
    with pytest.raises(IngestionError) as info:
        load_top_performers(path)
    assert str(info.value) == f"{path}: {message}"


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


@pytest.mark.parametrize("data, line, reason", [
    # a byte-order mark, then \r\n, \r and \n line ends before the bad byte
    (b"\xef\xbb\xbfdate,open,volume\r\n2014-01-02,10,100\r2014-01-03,11,90\n"
     b"2014-01-0\xff4,12,80\n", 4, "invalid start byte"),
    (b"date,open,volume\r\r\n2014-01-02,10,100\n\n2014-01-03,11,9\xc3", 5,
     "unexpected end of data"),
])
def test_non_utf8_agent_file_names_the_line(tmp_path, data, line, reason):
    path = tmp_path / "X.csv"
    path.write_bytes(data)
    with pytest.raises(IngestionError) as caught:
        load_agent_series(path, "stock")
    assert str(caught.value) == f"{path}: line {line}: not UTF-8 ({reason})"


def test_quotes_are_part_of_the_cell(tmp_path):
    path = write(tmp_path, "Q.csv", 'date,open,volume\n2014-01-02,"10",100\n')
    with pytest.raises(IngestionError, match=re.escape("""line 2: bad open value '"10"'""")):
        load_agent_series(path, "stock")
    path = write(tmp_path, "H.csv", '"date","open","volume"\n2014-01-02,10,100\n')
    with pytest.raises(IngestionError, match="bad header"):
        load_agent_series(path, "stock")


def test_loading_is_order_independent(tmp_path):
    a = write(tmp_path, "A.csv", "date,open,volume\n2014-01-02,10,100\n2014-01-03,11,90\n")
    b = write(tmp_path, "B.csv", "date,open,volume\n2014-01-02,20,200\n2014-01-03,21,190\n")
    first = [load_agent_series(p, "stock") for p in (a, b)]
    second = [load_agent_series(p, "stock") for p in (b, a)]
    assert ({s.agent_id: series_to_rows(s) for s in first}
            == {s.agent_id: series_to_rows(s) for s in second})


def test_index_file_out_of_order_names_the_line(tmp_path):
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-02,1\n2014-01-06,2\n2014-01-03,3\n")
    with pytest.raises(IngestionError) as caught:
        load_index_series(path, "VIX")
    assert str(caught.value) == f"{path}: line 4: out-of-order date 2014-01-03"


def test_agent_file_with_a_repeated_date_names_both_lines(tmp_path):
    path = write(tmp_path, "X.csv",
                 "date,open,volume\n2014-01-03,1,2\n2014-01-02,3,4\n2014-01-03,5,6\n")
    with pytest.raises(IngestionError) as caught:
        load_agent_series(path, "stock")
    assert str(caught.value) == f"{path}: line 4: duplicate date 2014-01-03 (first at line 2)"


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


def load_crypto(path):
    return load_agent_series(path, "crypto")


def load_vix(path):
    return load_index_series(path, "VIX")


@pytest.mark.parametrize("load, text, problem", [
    (load_crypto, "date,open,volume,market_cap\n2014-01-02,1,1\n",
     "line 2: expected 4 fields, got 3"),
    (load_crypto, "date,open,volume,market_cap\n2014-01-02,1,1,,5\n",
     "line 2: expected 4 fields, got 5"),
    (load_crypto, "date,open,volume,market_cap\n2014-01-02,1,1,\n2014-01-03,1,1,,5\n",
     "line 3: expected 4 fields, got 5"),
    (load_crypto, "date,open,volume,market_cap\n2014-01-02,1,1,\n2014-01-03,1,1\n",
     "line 3: expected 4 fields, got 3"),
    (load_vix, "date,level\n2014-01-02\n", "line 2: expected 2 fields, got 1"),
    (load_vix, "date,level\n2014-01-02,1\n2014-01-03,1,2\n", "line 3: expected 2 fields, got 3"),
], ids=["agent-short", "agent-long", "agent-mixed-long", "agent-mixed-short",
        "index-short", "index-mixed-long"])
def test_loaders_reject_rows_of_the_wrong_width(tmp_path, load, text, problem):
    path = write(tmp_path, "vix.csv" if load is load_vix else "X.csv", text)
    with pytest.raises(IngestionError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: {problem}"


def test_loaders_reject_nan_values_in_every_column(tmp_path):
    header = "date,open,volume,market_cap\n"
    for field, cells in (("open", "nan,1,"), ("volume", "1,NaN,1"), ("market_cap", "1,1,nan")):
        path = write(tmp_path, "X.csv", f"{header}2014-01-02,1,1,1\n2014-01-03,{cells}\n")
        with pytest.raises(IngestionError) as caught:
            load_crypto(path)
        assert str(caught.value) == f"{path}: line 3: non-finite {field} value"
    path = write(tmp_path, "vix.csv", "date,level\n2014-01-02,nan\n")
    with pytest.raises(IngestionError) as caught:
        load_vix(path)
    assert str(caught.value) == f"{path}: line 2: non-finite level value"


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
def test_loaders_reject_infinite_values(tmp_path, cell):
    path = write(tmp_path, "X.csv", f"date,open,volume\n2014-01-02,1,{cell}\n")
    with pytest.raises(IngestionError) as caught:
        load_agent_series(path, "stock")
    assert str(caught.value) == f"{path}: line 2: non-finite volume value"
    path = write(tmp_path, "vix.csv", f"date,level\n2014-01-02,{cell}\n")
    with pytest.raises(IngestionError) as caught:
        load_vix(path)
    assert str(caught.value) == f"{path}: line 2: non-finite level value"


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FINITE = st.floats(0.0, 1e6)
# values at and beyond the edges of the accepted range
EDGES = st.one_of(
    st.sampled_from([0.0, 1e100, math.nextafter(1e100, math.inf),
                     math.inf, -math.inf, math.nan]),
    st.floats(max_value=-math.ulp(0.0), allow_infinity=False),
)
HEADERS = {"index": "date,level", "stock": "date,open,volume",
           "crypto": "date,open,volume,market_cap"}


@st.composite
def edge_rows(draw, kind):
    """The rows of a file for an index or an agent of ``kind``: in date order
    with duplicate dates allowed, at most one value cell an edge value, and
    crypto caps sometimes blank (None)."""
    width = 1 if kind == "index" else 3
    rows = [[day(d)] + [draw(FINITE) for _ in range(width)]
            for d in sorted(draw(st.lists(st.integers(0, 30), max_size=6)))]
    if rows and draw(st.booleans()):
        read = {"index": 1, "stock": 2, "crypto": 3}[kind]  # value cells a file holds
        draw(st.sampled_from(rows))[draw(st.integers(1, read))] = draw(EDGES)
    for r in rows:
        if kind == "stock" or kind == "crypto" and draw(st.booleans()):
            r[3] = None
    return [tuple(r) for r in rows]


def as_csv(kind, rows) -> str:
    """The rows as a loader's file; a None or NaN cap is a blank cell."""
    lines = [HEADERS[kind]]
    for d, *values in rows:
        cells = [d.isoformat()] + [repr(v) for v in values[: 1 if kind == "index" else 2]]
        if kind == "crypto":
            cells.append("" if values[2] is None or math.isnan(values[2]) else repr(values[2]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def as_loaded(kind, rows) -> list[tuple]:
    """The rows as a loaded series holds them: a NaN cap, a blank cell in the
    file, is None."""
    if kind != "crypto":
        return rows
    return [(*r[:3], None if r[3] is None or math.isnan(r[3]) else r[3]) for r in rows]


def keeps_the_invariants(rows) -> bool:
    """README's invariants of a series: some row, strictly increasing dates,
    and every value from 0 to 1e100, so none NaN; a None cap is no value."""
    dates = [r[0] for r in rows]
    values = [v for r in rows for v in r[1:] if v is not None]
    return (bool(rows) and all(a < b for a, b in zip(dates, dates[1:]))
            and all(0 <= v <= 1e100 for v in values))


def accepted(load):
    """The series a loader returns, as plain rows; None when it raises."""
    try:
        series = load()
    except IngestionError:
        return None
    return list(series.values) if isinstance(series, IndexSeries) else series_to_rows(series)


@SETTINGS
@given(st.sampled_from(["stock", "crypto", "index"]), st.data())
def test_loaders_accept_exactly_the_rows_that_keep_the_invariants(kind, data):
    rows = data.draw(edge_rows(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X.csv"
        path.write_text(as_csv(kind, rows))
        if kind == "index":
            loaded = accepted(lambda: load_index_series(path, "VIX"))
        else:
            loaded = accepted(lambda: load_agent_series(path, kind))
    rows = as_loaded(kind, rows)
    assert loaded == (rows if keeps_the_invariants(rows) else None)


def test_window_start_after_end_rejected():
    with pytest.raises(IngestionError, match="start"):
        AnalysisWindow(dt.date(2015, 1, 1), dt.date(2014, 1, 1), "bad")


def test_day_helper_is_monday():
    assert day(0).weekday() == 0


# cells of a generated file; none holds a '"' or a line end, where csv.reader
# would differ, or a cell too long for it (\x0b, \x1c and \u2028 end a line
# only for str.splitlines)
GOOD_VALUES = ["10", "1.5", " 2.25 ", "0", "0.0", "-0.0", "1e100", "7e-3", "123456.789"]
BLANK_CAPS = ["", " ", "\t"]
BAD_VALUES = ["-1", "-0.5", "1e101", "nan", "NaN", "inf", "-inf", "abc", "", " ", "1x"]
CELL_TEXT = st.text(alphabet="0123456789.-+eE nai\t\x0b\x1c\u2028", max_size=6)
BAD_HEADERS = ["", "date, open", "date,open,volume,cap", "date,level,volume", "level,date"]
DATE_TEXT = ["2014-13-01", "20140102", "2014-1-3", "2014-01-03T00", "", " ", "x"]
LINE_ENDS = ["\n", "\r\n", "\r"]
FAULTS = ["header", "date", "value", "text", "fields", "empty line", "duplicate", "unsorted"]


@st.composite
def file_texts(draw, kind):
    """A loader's file as text: a header, data rows of day(0..12) dates and
    GOOD_VALUES cells (padded, and for agents in any order), and at most one
    fault of FAULTS. Each line ends with \\n, \\r\\n or \\r; the file may
    start with a byte-order mark and end with empty lines or an unended line."""
    width = len(HEADERS[kind].split(","))
    header = HEADERS[kind]
    days = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True))
    days = sorted(days) if kind == "index" else draw(st.permutations(days))
    good_cap = st.sampled_from(GOOD_VALUES + BLANK_CAPS)
    rows = []
    for d in days:
        date = day(d).isoformat()
        cells = [f" {date}\t" if draw(st.booleans()) else date]
        cells += [draw(st.sampled_from(GOOD_VALUES)) for _ in range(width - 1)]
        if kind == "crypto":
            cells[-1] = draw(good_cap)
        rows.append(cells)
    fault = draw(st.sampled_from([None, None] + FAULTS))
    row = draw(st.sampled_from(rows))
    if fault == "header":
        header = draw(st.sampled_from(BAD_HEADERS + list(HEADERS.values())))
    elif fault == "date":
        row[0] = draw(st.sampled_from(DATE_TEXT))
    elif fault in ("value", "text"):
        bad = st.sampled_from(BAD_VALUES) if fault == "value" else CELL_TEXT
        row[draw(st.integers(1, width - 1))] = draw(bad)
    elif fault == "fields":
        row[:] = row[:-1] if draw(st.booleans()) else row + ["1"]
    elif fault == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    elif fault == "unsorted":
        rows.reverse()
    if draw(st.booleans()):
        header = ",".join(f" {h} " for h in header.split(","))
    lines = [header] + [",".join(cells) for cells in rows]
    if fault == "empty line":
        lines.insert(draw(st.integers(1, len(lines) - 1)), "")
    lines += [""] * draw(st.integers(0, 2))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # the last line unended, or its \r\n cut to \r
    return ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(load):
    """A loader's columns, or the message of the IngestionError it raises."""
    try:
        series = load()
    except IngestionError as exc:
        return str(exc)
    if isinstance(series, IndexSeries):
        return series.index_id, series.days.tobytes(), series.levels.tobytes()
    columns = (series.days, series.open, series.volume, series.cap)
    return (series.agent_id, series.market_kind, *(c.tobytes() for c in columns))


def assert_loads_as_the_csv_reader_reference(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X.csv"
        path.write_bytes(text.encode())
        if kind == "index":
            loaded = outcome(lambda: load_index_series(path, "VIX"))
            reference = outcome(lambda: csv_reference.load_index_series(path, "VIX"))
        else:
            loaded = outcome(lambda: load_agent_series(path, kind))
            reference = outcome(lambda: csv_reference.load_agent_series(path, kind))
    assert loaded == reference


@SETTINGS
@given(st.sampled_from(["stock", "crypto", "index"]), st.data())
def test_loaders_match_the_csv_reader_reference(kind, data):
    assert_loads_as_the_csv_reader_reference(kind, data.draw(file_texts(kind)))


@pytest.mark.parametrize("kind, text", [
    ("stock", "\ufeffdate,open,volume\r\n2014-01-03,1,2\r2014-01-02,3,4\n\r\n\r\n"),
    ("stock", "date,open,volume\r\n2014-01-02,1,2\r\r\n2014-01-03,3,4\n"),
    ("stock", " date , open ,volume\n 2014-01-02\t, 1 ,2\n2014-01-03,-1,4\n"),
    ("stock", "date,open,volume\n2014-01-02,1,2\n2014-01-03,1e101,4\n"),
    ("stock", "date,open,volume\n2014-01-02,1,2\n2014-01-02,3,4\n"),
    ("stock", "date,open,volume\n2014-01-02,1,2\n2014-01-03,3\n"),
    ("crypto", "date,open,volume,market_cap\n2014-01-02,1,2,\n2014-01-03,3,4, \n"),
    ("crypto", "date,open,volume,market_cap\n2014-01-02,1,2,\n2014-01-03,3,4,nan\n"),
    ("crypto", "date,open,volume,market_cap\n2014-01-02,1,2,-5\n"),
    ("index", "date,level\r2014-01-03,1\r2014-01-02,2\r"),
    ("index", "date,level\n2014-01-02,1\n2014-01-03, 1e100 \n\n"),
    ("index", "date,level\n\n2014-01-02,1\n"),
    ("index", "\ndate,level\n2014-01-02,1\n"),
    ("index", "date,level\n2014-02-30,1\n"),
], ids=["line-ends-and-bom", "lone-cr-is-an-empty-line", "padded-and-negative", "above-1e100",
        "duplicate-date", "short-row", "blank-and-space-caps", "nan-cap", "negative-cap",
        "index-unsorted", "index-padded-1e100", "index-empty-line", "index-empty-header",
        "index-bad-date"])
def test_loaders_match_the_csv_reader_reference_on_each_edge(kind, text):
    assert_loads_as_the_csv_reader_reference(kind, text)


# value cells the span check (ingestion._plain_lines) takes as they are, and
# cells it leaves to the conversion of every row, valid or not
PLAIN_VALUES = ["10", "1.5", "0", "0.0", "123456.789", "7e-3", "2e-08", "1.5e+16", "9.99e99",
                ".5", "5.", "9" * 100]
ODD_VALUES = [" 2.25 ", "-0", "-0.0", "1e100", "1e+101", "1E5", "+1", "12e5", "2" + "0" * 100,
              "1" + "0" * 101, "nan", "inf", "-1", "abc", "", " ", "1_0"]
ODD_DATES = ["0000-01-01", "2014-02-29", "2015-1-05", "+015-01-05", " {}\t", "{} ", "{}0"]


@st.composite
def spanned_files(draw, kind):
    """An agent file of day(0..20) rows, sorted or not, with PLAIN_VALUES cells
    (crypto caps sometimes blank), up to two ODD_VALUES cells, and maybe an
    ODD_DATES date or a repeated date; and a span of day(-3..23)."""
    width = len(HEADERS[kind].split(","))
    days = draw(st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True))
    days = draw(st.permutations(days)) if draw(st.booleans()) else sorted(days)
    plain = st.sampled_from(PLAIN_VALUES)
    rows = [[day(d).isoformat()] + [draw(plain) for _ in range(width - 1)] for d in days]
    if kind == "crypto":
        for row in rows:
            row[-1] = draw(st.sampled_from(["", row[-1]]))
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(rows))[draw(st.integers(1, width - 1))] = draw(
            st.sampled_from(ODD_VALUES))
    fault = draw(st.sampled_from([None, None, "date", "duplicate"]))
    row = draw(st.sampled_from(rows))
    if fault == "date":
        row[0] = draw(st.sampled_from(ODD_DATES)).format(row[0])
    elif fault == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), [row[0]] + [draw(plain) for _ in row[1:]])
    text = "\n".join([HEADERS[kind]] + [",".join(r) for r in rows]) + "\n"
    first, last = sorted(draw(st.integers(-3, 23)) for _ in range(2))
    return text, (day(first), day(last))


def in_span(series, span):
    """The series less every row but the earliest and those inside the span."""
    days = series.days
    keep = (days >= span[0].toordinal()) & (days <= span[1].toordinal())
    keep[0] = True
    return AgentSeries(series.agent_id, series.market_kind, days[keep], series.open[keep],
                       series.volume[keep], series.cap[keep])


def assert_span_load_is_the_reference_in_span(kind, text, span):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X.csv"
        path.write_text(text)
        loaded = outcome(lambda: load_agent_series(path, kind, span))
        reference = outcome(lambda: in_span(csv_reference.load_agent_series(path, kind), span))
    assert loaded == reference


@SETTINGS
@given(st.sampled_from(["stock", "crypto"]), st.data())
def test_span_load_is_the_reference_load_in_span(kind, data):
    assert_span_load_is_the_reference_in_span(kind, *data.draw(spanned_files(kind)))


def span_text(kind, changes=(), days=range(15)):
    """An agent file with a row per day(d) of ``days``, in that order, each
    value "1.5" but for ``changes``: (row, column, text), column 0 the date."""
    width = len(HEADERS[kind].split(","))
    rows = [[day(d).isoformat()] + ["1.5"] * (width - 1) for d in days]
    for row, column, text in changes:
        rows[row][column] = text
    return "\n".join([HEADERS[kind]] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("kind, text", [
    ("stock", span_text("stock", [(2, 1, "-1")])),
    ("crypto", span_text("crypto", [(12, 2, "abc")])),
    ("stock", span_text("stock", [(2, 1, "-1"), (7, 1, "-2")])),
    ("stock", span_text("stock", [(1, 0, "0000-01-01")])),
    ("stock", span_text("stock", [(13, 0, "2014-02-29")])),
    ("stock", span_text("stock", [(1, 0, f"{day(1)} "), (13, 0, f"{day(13)}0")])),
    ("stock", span_text("stock", [(12, 2, "1e+101")])),
    ("crypto", span_text("crypto", [(3, 3, "2" + "0" * 100)])),
    ("crypto", span_text("crypto", [(2, 3, "nan")])),
    ("crypto", span_text("crypto", [(1, 1, "-0"), (2, 2, "1e100"), (3, 3, "9" * 100),
                                    (11, 1, " 1.5 ")])),
    ("crypto", span_text("crypto", [(1, 3, ""), (6, 3, ""), (2, 3, "2e-08"),
                                    (7, 1, "1.5e+16")])),
    ("stock", span_text("stock", days=[0, 1, 2, 3, 4, 5, 6, 7, 4, 8])),
    ("stock", span_text("stock", days=[5, 0, 1, 2, 3, 4, 5, 6])),
    ("stock", span_text("stock", days=range(14, -1, -1))),
    ("crypto", span_text("crypto", [(0, 1, "-1")])),
    ("stock", span_text("stock", days=range(10, 15))),
    ("stock", span_text("stock", days=range(0, 5))),
    # the 95th line left out is bad
    ("stock", span_text("stock", [(100, 1, "-1")], days=range(150))),
    ("stock", span_text("stock", days=range(5, 15))),
    # in date order as text, but not a day
    ("stock", span_text("stock", [(14, 0, "2019-02-29")])),
    ("crypto", span_text("crypto", [(13, 0, "2015-01-32")], days=[*range(13), 20, 40])),
    ("stock", span_text("stock", days=[0, 1, *range(1, 15)])),
    ("crypto", span_text("crypto", days=[*range(15), 14])),
    ("stock", span_text("stock", days=[0, 2, 1, *range(3, 15)])),
    # newest first
    ("stock", span_text("stock", [(12, 1, "-1")], days=range(14, -1, -1))),
    ("crypto", span_text("crypto", [(1, 2, "abc")], days=range(14, -1, -1))),
    ("crypto", span_text("crypto", [(1, 0, "2015-01-32")], days=[40, 20, *range(12, -1, -1)])),
    ("stock", span_text("stock", days=range(14, 9, -1))),
    ("stock", span_text("stock", days=range(4, -1, -1))),
    # the 264th line left out, in date order, is bad
    ("stock", span_text("stock", [(40, 1, "-1")], days=range(309, -1, -1))),
    # the 4,145th line left out, in the second block of 4,096, is bad
    ("stock", span_text("stock", [(4150, 1, "-1")], days=range(4200))),
    ("stock", span_text("stock", [(2, 1, "-1")], days=[d * 7 % 15 for d in range(15)])),
], ids=["bad-cell-before", "bad-cell-after", "bad-cells-before-and-in", "year-0000-before",
        "feb-29-after", "date-suffixes-outside", "1e+101-after", "101-digits-before",
        "nan-cap-before", "-0-1e100-100-digits-padded", "blank-and-exponent-cells",
        "duplicate-before", "duplicate-first-day", "unsorted", "bad-earliest-row", "all-after",
        "all-before", "bad-cell-past-the-first-64-left-out", "span-starts-on-first-line",
        "2019-02-29-last", "day-32-after", "repeated-date-before", "repeated-date-last",
        "swapped-rows-before", "newest-first-bad-cell-before",
        "newest-first-bad-cell-after", "newest-first-day-32-after", "newest-first-all-after",
        "newest-first-all-before", "newest-first-bad-cell-past-the-first-256-left-out",
        "bad-cell-past-the-first-4096-left-out",
        "shuffled-bad-cell-after"])
def test_span_load_is_the_reference_load_in_span_on_each_edge(kind, text):
    assert_span_load_is_the_reference_in_span(kind, text, (day(5), day(9)))


@SETTINGS
@given(st.sampled_from([3, 4]),
       st.lists(st.one_of(st.sampled_from(PLAIN_VALUES + ODD_VALUES),
                          st.floats(0, 1e100).map(repr),
                          st.text(alphabet="0123456789.e+-", max_size=8)),
                min_size=3, max_size=3))
def test_plain_lines_take_only_cells_float_reads_within_bounds(width, cells):
    cells = cells[: width - 1]
    line = f"2015-01-05,{','.join(cells)}\n"
    if ingestion._plain_lines(width).fullmatch(line):
        values = [float(c) for c in cells if c]
        assert all(0 <= v <= ingestion.MAX_VALUE for v in values)


# lines over these characters: a date-shaped or free first field, then two or
# three cells, each free or a value the pattern may take
SHAPE_TEXT = st.text(alphabet="0123456789.eE+-, na\u0663\x00", max_size=12)
SHAPE_CELLS = st.one_of(SHAPE_TEXT, st.sampled_from(PLAIN_VALUES), st.floats(0, 1e100).map(repr))
SHAPE_LINES = st.builds(
    lambda date, cells: ",".join([date, *cells]),
    st.one_of(st.text(alphabet="0123456789-", min_size=10, max_size=10), SHAPE_TEXT),
    st.lists(SHAPE_CELLS, min_size=2, max_size=3))


@SETTINGS
@given(st.sampled_from([3, 4]), SHAPE_LINES)
def test_a_line_matches_the_plain_lines_pattern_as_its_digit_shape_does(width, line):
    # _window certifies the lines it leaves out by their shapes
    plain = ingestion._plain_lines(width).fullmatch
    shape = line.translate(ingestion._SHAPE)
    assert bool(plain(line + "\n")) == bool(plain(shape + "\n"))


@pytest.mark.parametrize("order", [range(20), range(19, -1, -1), [d * 7 % 20 for d in range(20)]],
                         ids=["oldest-first", "newest-first", "shuffled"])
def test_window_keeps_the_earliest_line_and_the_span_in_any_row_order(order):
    body = [f"{day(d)},1.5,2.5" for d in range(20)]
    kept = ingestion._window([body[d] for d in order], 3, (day(5), day(9)))
    assert kept == body[:1] + body[5:10]


def test_left_out_lines_are_certified_in_bounded_memory():
    # a greedy match over one block keeps a backtracking state per line:
    # about 23 MB for these 20,000 lines; the window itself holds their date
    # texts (1.4 MB) and, for a moment, their parsed dates (0.8 MB)
    body = [f"{day(d)},1.5,2.5" for d in range(20_001)]
    ingestion._plain_lines(3)
    tracemalloc.start()
    try:
        kept = ingestion._window(body, 3, (day(30_000), day(30_001)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == body[:1]
    assert peak < 4_000_000


def test_left_out_lines_of_distinct_shapes_are_certified_in_bounded_memory():
    # as many digit shapes as lines: a set of them all would be a second copy
    # of the lines (6.3 MB in all); the shapes are matched and dropped every 4,096
    body = [f"{day(d)},{'1' * (2 + d % 20)}.{'1' * (d // 20 % 21)},{'1' * (2 + d // 420)}.5"
            for d in range(20_001)]
    assert len({line.translate(ingestion._SHAPE) for line in body}) == len(body)
    span = (day(30_000), day(30_001))
    ingestion._plain_lines(3)
    tracemalloc.start()
    try:
        kept = ingestion._window(body, 3, span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == body[:1]
    assert peak < 4_000_000
    # a bad cell among the last shapes, matched after the first 4,096 dropped
    body[-1] += "x"
    assert ingestion._window(body, 3, span) == body
