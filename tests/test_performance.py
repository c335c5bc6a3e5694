import datetime as dt
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antifrag import cli
from antifrag.ingestion import AnalysisWindow, slice_window
from antifrag.performance import PERF_VARIABLES, compute_performance, top_ids_for
from antifrag.pipeline import _render_performance, _render_scatter

import performance_reference as reference
from conftest import day, make_agent

WINDOW = AnalysisWindow(day(0), day(30), "w")


def table_for(rows, kind="stock", window=WINDOW, full_start=None):
    series = make_agent("X", kind, rows)
    return compute_performance([series], {"X": full_start or series.first_date}, window)


def record_for(*args, **kwargs):
    """The agent's metrics by name, None where undefined."""
    table = table_for(*args, **kwargs)
    values = table.values[table.row_of["X"]].tolist()
    return {name: None if math.isnan(v) else v for name, v in zip(PERF_VARIABLES, values)}


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
    tables = {"w": table_for(rows)}

    def flag(top):
        text = "".join(_render_performance(tables, {"w": top}))
        return text.splitlines()[1].split(",")[-1]

    assert flag(frozenset({"X"})) == "true"
    assert flag(frozenset({"x"})) == "false"
    assert flag(frozenset({"XY"})) == "false"


def test_top_ids_for_matches_end_year():
    top = {2014: frozenset({"A"}), 2015: frozenset({"B"})}
    window = AnalysisWindow(dt.date(2015, 1, 1), dt.date(2015, 11, 30), "2015")
    assert top_ids_for([window], top) == {"2015": frozenset({"B"})}


def test_top_ids_for_missing_year_warns_not_raises(caplog):
    top = {2014: frozenset({"A"})}
    windows = [AnalysisWindow(dt.date(y, 1, 1), dt.date(y, 12, 31), label)
               for y, label in ((2017, "late"), (2014, "w14"), (2016, "early"))]
    with caplog.at_level("WARNING"):
        assert top_ids_for(windows, top) == {
            "late": frozenset(), "w14": frozenset({"A"}), "early": frozenset()}
    assert [r.message for r in caplog.records] == [
        "no top-performer list in 2 of 3 windows: year 2017 (window late), "
        "year 2016 (window early)"]


def test_top_ids_for_no_lists_is_empty():
    window = AnalysisWindow(dt.date(2016, 1, 1), dt.date(2016, 12, 31), "2016")
    assert top_ids_for([window], None) == {"2016": frozenset()}


# ids whose file order (by "<id>.csv") is not their id order: "a-b.csv"
# sorts before "a.csv", but "a" sorts before "a-b"
PROPERTY_IDS = ["A", "a", "a-b", "a.b", "a_b", "b", "b-0", "b0"]
PROPERTY_DAYS = [dt.date(2014, 12, 29) + dt.timedelta(days=k) for k in range(9)]
# listed out of label order; both cover the new year, neither covers all days
PROPERTY_WINDOWS = (AnalysisWindow(dt.date(2015, 1, 1), dt.date(2015, 1, 6), "w1"),
                    AnalysisWindow(dt.date(2014, 12, 30), dt.date(2015, 1, 3), "w0"))
# signed zeros, a double whose pow(d, 2) is not d * d, values whose plain
# sum is not their fsum and the largest value a loader accepts
PROPERTY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.2, 0.3, 1e16, 7.2249061795510094, 1e100]),
    st.floats(0.0, 1e6),
)


def property_inputs(kind, agents, input_order, top, cases):
    """(windows, sliced agents per window in input order, full-history start
    per agent, top ids per window, cases) as ``pipeline.execute`` holds them.
    ``agents`` maps id to plain rows; ``input_order`` ranks the series (file
    order first); ``cases`` maps (window, measure, scale) to {agent: A}."""
    series = sorted((make_agent(aid, kind, rows) for aid, rows in agents.items()),
                    key=lambda s: f"{s.agent_id}.csv")
    series = [series[k] for k in input_order]
    sliced = {w.label: [c for c in (slice_window(s, w) for s in series) if c is not None]
              for w in PROPERTY_WINDOWS}
    case_list = sorted(
        (*key, sorted(a), [a[aid] for aid in sorted(a)],
         [format(a[aid], ".17g") for aid in sorted(a)], [1] * len(a))
        for key, a in cases.items()
    )
    return (PROPERTY_WINDOWS, sliced, {s.agent_id: s.first_date for s in series},
            top, case_list)


@st.composite
def performance_inputs(draw):
    """Stock or crypto agents with gaps, zero-mean channels (all volumes 0),
    blank and all-blank caps, in file or shuffled order, and cases that name
    agents without performance in their window."""
    kind = draw(st.sampled_from(["stock", "crypto"]))
    agents = {}
    for aid in sorted(draw(st.sets(st.sampled_from(PROPERTY_IDS), min_size=1))):
        days = sorted(draw(st.sets(st.sampled_from(PROPERTY_DAYS), min_size=1)))
        zero_volume = draw(st.booleans())
        blank_caps = kind == "stock" or draw(st.booleans())
        agents[aid] = [
            (d, draw(PROPERTY_VALUES), 0.0 if zero_volume else draw(PROPERTY_VALUES),
             None if blank_caps else draw(st.one_of(st.none(), PROPERTY_VALUES)))
            for d in days
        ]
    input_order = list(range(len(agents)))
    if draw(st.booleans()):
        input_order = draw(st.permutations(input_order))
    top = {w.label: frozenset(draw(st.sets(st.sampled_from(PROPERTY_IDS))))
           for w in PROPERTY_WINDOWS}
    cases = {
        (w.label, measure, scale): draw(st.dictionaries(st.sampled_from(PROPERTY_IDS),
                                                        st.floats(-1.0, 1.0)))
        for w in PROPERTY_WINDOWS
        for measure, scale in sorted(draw(st.sets(st.tuples(st.sampled_from(["afp", "afv"]),
                                                            st.integers(0, 2)),
                                                  min_size=1, max_size=3)))
    }
    return property_inputs(kind, agents, input_order, top, cases)


def edge_performance_inputs():
    """Crypto agents in file order: "a-b" with prices whose final-initial
    change is -0.0, volumes of mean 0 and no cap at all, "a" with one cap,
    and "b", which has A in a case but no rows."""
    days = PROPERTY_DAYS[1:5]
    agents = {
        "a-b": [(d, p, 0.0, None) for d, p in zip(days, [0.0, 1.0, 2.0, -0.0])],
        "a": [(d, 1.0 + k, 2.0, 5.0 if k == 1 else None) for k, d in enumerate(days)],
    }
    cases = {("w0", "afp", 0): {"a": 0.5, "a-b": -0.0, "b": 0.25},
             ("w1", "afv", 2): {"a-b": 0.1}}
    top = {"w0": frozenset({"a-b"}), "w1": frozenset()}
    return property_inputs("crypto", agents, [0, 1], top, cases)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(performance_inputs())
@example(edge_performance_inputs())
def test_performance_and_scatter_equal_reference_bit_for_bit(inputs):
    windows, sliced, full_start, top, cases = inputs
    tables = {w.label: compute_performance(sliced[w.label], full_start, w) for w in windows}
    _, perf_text = reference.perf_texts(windows, sliced, full_start)
    assert ("".join(_render_performance(tables, top))
            == reference.render_performance(perf_text, top))
    assert "".join(_render_scatter(cases, tables)) == reference.render_scatter(cases, perf_text)


# performance.csv's columns, by the definitions in README § Output files
METRICS = ("age_days", "pct_dlt_pr", "pct_dlt_mk", "pct_dlt_vl", "pct_pr_f_i",
           "pct_mk_f_i", "pct_vl_f_i", "pr_mea", "pr_std", "mk_mea", "vl_mea")


def expected_performance(tree):
    """performance.csv of a fixture tree whose config has one window (a year
    or label:start:end), from its agent CSVs and top list read as plain
    text: per agent with at least two rows in the window, in id order, its
    metrics (None where undefined) and top flag."""
    keys = dict(line.split(" = ") for line in (tree / "config.cfg").read_text().splitlines())
    if ":" in keys["windows"]:
        label, first, last = keys["windows"].split(":")
        start, end = dt.date.fromisoformat(first), dt.date.fromisoformat(last)
    else:
        label = keys["windows"]
        start, end = dt.date(int(label), 1, 1), dt.date(int(label), 12, 31)
    top = json.loads((tree / "top_performers.json").read_text()).get(str(end.year), [])
    rows = []
    for path in sorted((tree / "agents").glob("*.csv"), key=lambda p: p.stem):
        lines = sorted(line.split(",") for line in path.read_text().splitlines()[1:])
        days = [dt.date.fromisoformat(cells[0]) for cells in lines]
        inside = [cells for day_, cells in zip(days, lines) if start <= day_ <= end]
        if len(inside) < 2:
            continue
        channels = [[float(cells[k]) for cells in inside if len(cells) > k and cells[k]]
                    for k in (1, 3, 2)]  # price, observed market caps, volume
        spread, change, mean = [], [], []
        for values in channels:
            m = math.fsum(values) / len(values) if values else None
            ratio = bool(m)  # a ratio over a zero or missing mean is undefined
            spread.append((max(values) - min(values)) / m if ratio else None)
            change.append((values[-1] - values[0]) / m if ratio else None)
            mean.append(m)
        prices = channels[0]
        pr_std = math.sqrt(math.fsum((p - mean[0]) ** 2 for p in prices) / len(prices))
        metrics = [float((end - min(days)).days), *spread, *change,
                   mean[0], pr_std, mean[1], mean[2]]
        rows.append((path.stem, label, metrics, "true" if path.stem in top else "false"))
    return rows


# the fixture's window, and one that leaves out each agent's first rows, so
# that age_days counts from a date outside it
@pytest.mark.parametrize("window", ["2014", "late:2014-02-01:2014-12-31"])
@pytest.mark.parametrize("market", ["stocks", "crypto"])
def test_performance_csv_follows_the_metric_definitions(tmp_path, market, window):
    assert cli.main(["fixture", "--out", str(tmp_path)]) == 0
    tree = tmp_path / market
    config = tree / "config.cfg"
    config.write_text(config.read_text().replace("windows = 2014", f"windows = {window}"))
    assert cli.main(["run", "--config", str(config)]) == 0
    header, *lines = (tree / "output" / "performance.csv").read_text().splitlines()
    assert header == ",".join(["agent_id", "window", *METRICS, "is_top_performer"])
    expected = expected_performance(tree)
    assert len(lines) == len(expected) > 0
    for line, (aid, label, metrics, flag) in zip(lines, expected):
        cells = line.split(",")
        assert cells[:2] + cells[-1:] == [aid, label, flag]
        for name, text, value in zip(METRICS, cells[2:-1], metrics, strict=True):
            if value is None:
                assert text == "", (aid, name)
            else:
                assert math.isclose(float(text), value, rel_tol=1e-12), (aid, name, text, value)
