"""The record classes' contract: constructors, fields, equality and length.

The records are named tuples where tuple behaviour is harmless and small
``__slots__`` (or plain) classes elsewhere; none is generated at import.
"""

import datetime as dt
import inspect
from pathlib import Path

import numpy as np
import pytest

from antifrag import analysis, config, ingestion, measures, resampling
from antifrag.config import AnalysisWindow, RunConfig, TimeScale
from antifrag.errors import IngestionError
from antifrag.ingestion import AgentSeries, IndexSeries

START, END = dt.date(2014, 1, 1), dt.date(2014, 12, 31)

CONFIG_FIELDS = ("market_kind data_dir output_dir windows scales measures index_dir "
                 "top_performers_path n_hist_bins worker_count")

# every record class and its constructor's parameters, in order
FIELDS = {
    config.AnalysisWindow: "start end label",
    config.RunConfig: CONFIG_FIELDS,
    ingestion.AgentSeries: "agent_id market_kind days open volume cap",
    ingestion.IndexSeries: "index_id days levels",
    resampling.Ragged: "offsets days values",
    resampling.Channel: "offsets days values raw",
    resampling.NormalizedPanel: "market_kind window scale ids channels indexes",
    measures.SatisfactionSeries: "agent_id days values",
    measures.PerturbationSeries: "days values",
    measures.AntifragilityResult: "days instants global_a n_used",
    measures.Scores: "offsets days values global_a",
    measures.WindowScaleResults: "alive_agents satisfaction perturbations scores",
    analysis.BinSummary: "bin_index bin_by stat_of count min mean max",
    analysis.Distribution: "edges densities sample_count",
    analysis.ComparisonStats: "cases_total cases_top_greater fraction_top_greater "
                              "sum_diff_when_greater sum_diff_otherwise ratio",
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_its_fields_in_order(cls):
    names = FIELDS[cls].split()
    assert list(inspect.signature(cls).parameters) == names
    values = {name: [name] for name in names}
    if cls is AnalysisWindow:
        values.update(start=START, end=END)
    record = cls(**values)
    assert all(getattr(record, name) is values[name] for name in names)
    assert cls(*values.values()).__class__ is cls


def test_analysis_window_compares_and_hashes_by_value():
    window = AnalysisWindow(START, END, "2014")
    same = AnalysisWindow(start=START, end=END, label="2014")
    assert window == same == AnalysisWindow.calendar_year(2014)
    assert hash(window) == hash(same) and len({window, same}) == 1
    assert window != AnalysisWindow(START, END, "other")
    assert window != AnalysisWindow(START, START, "2014")


def test_analysis_window_still_rejects_start_after_end():
    with pytest.raises(IngestionError, match="window bad: start 2015-01-01 after end 2014-12-31"):
        AnalysisWindow(dt.date(2015, 1, 1), END, "bad")
    with pytest.raises(IngestionError, match="window bad: "):
        AnalysisWindow(end=START, start=END, label="bad")
    assert AnalysisWindow(END, END, "day").start == END  # a single day is a window


def test_run_config_defaults_match_positional_and_keyword_construction():
    required = ("crypto", Path("data"), Path("out"), (AnalysisWindow(START, END, "2014"),),
                (TimeScale.DAILY,), ("afp",))
    by_position = RunConfig(*required)
    by_keyword = RunConfig(**dict(zip(CONFIG_FIELDS.split(), required)))
    for cfg in (by_position, by_keyword):
        assert [getattr(cfg, name) for name in CONFIG_FIELDS.split()] == [
            *required, None, None, 50, 0]
    full = RunConfig(*required, Path("idx"), Path("top.json"), 7, 2)
    assert (full.index_dir, full.top_performers_path, full.n_hist_bins, full.worker_count) == (
        Path("idx"), Path("top.json"), 7, 2)
    with pytest.raises(TypeError):
        RunConfig("crypto", Path("data"))


def test_run_config_fields_are_exactly_the_config_keys():
    assert config._KEYS == frozenset(CONFIG_FIELDS.split())


def test_series_equal_only_themselves_and_measure_their_rows():
    days = np.array([735234, 735235, 735236])
    agent = AgentSeries("A", "crypto", days, np.ones(3), np.ones(3), np.full(3, np.nan))
    twin = AgentSeries("A", "crypto", days, agent.open, agent.volume, agent.cap)
    assert agent == agent and agent != twin and len({agent, twin}) == 2
    assert len(agent) == 3
    index = IndexSeries("VIX", days[:2], np.ones(2))
    assert index == index and index != IndexSeries("VIX", index.days, index.levels)
    assert len(index) == 2
