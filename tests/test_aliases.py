"""Scales that only relabel another scale's periods.

On a sparse calendar a coarser scale can put every observed day of a window
in a period of its own, as the daily scale does: it then takes the cases of
that finer scale instead of computing its own (``pipeline._reports``). These
tests check that every (window, scale) pair still reads as if it had been
run on its own, and check the cases such a scale takes against the
brute-force oracle.
"""

import contextlib
import datetime as dt
import io
import json
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antifrag.cli as cli
from antifrag import pipeline
from antifrag.config import MEASURES_BY_KIND, load_config
from antifrag.fixture import write_fixture_tree

from conftest import random_market
from oracle import oracle_compute

START = dt.date(2015, 1, 1)  # a Thursday
# the reports with one row set per (window, measure, scale) case
CASE_REPORTS = ("antifragility.csv", "scatter.csv", "correlations.csv", "bins.csv",
                "distributions.csv")
INDEX_LEVELS = (("VIX", 15.0), ("NASDAQ", 4e3), ("DJI", 1.6e4), ("SPX", 2e3))


def spread(rows, step: int):
    """Rows of a market quoted daily from START, moved to a quote every
    ``step`` days."""
    return [(START + (r[0] - START) * step, *r[1:]) for r in rows]


def write_tree(root: Path, kind: str, agents: dict, indexes: dict) -> Path:
    """Write ``agents`` and ``indexes`` (plain rows, as ``random_market``
    gives them) and a config that sets no windows and no scales. Returns the
    config path."""
    (root / "agents").mkdir(parents=True)
    for aid, rows in agents.items():
        if kind == "stock":
            lines = ["date,open,volume"] + [f"{d},{p!r},{v!r}" for d, p, v, _ in rows]
        else:
            lines = ["date,open,volume,market_cap"] + [
                f"{d},{p!r},{v!r},{'' if c is None else repr(c)}" for d, p, v, c in rows]
        (root / "agents" / f"{aid}.csv").write_text("\n".join(lines) + "\n")
    config = [f"market_kind = {kind}", "data_dir = agents", "output_dir = out"]
    if indexes:
        (root / "indexes").mkdir()
        for iid, rows in indexes.items():
            lines = ["date,level"] + [f"{d},{v!r}" for d, v in rows]
            (root / "indexes" / f"{iid.lower()}.csv").write_text("\n".join(lines) + "\n")
        config.append("index_dir = indexes")
    path = root / "config.cfg"
    path.write_text("\n".join(config) + "\n")
    return path


def configured(config: Path, windows, scales) -> Path:
    """A copy of ``config`` next to it that sets ``windows``, (label, start,
    end) triples, and ``scales``, each in the order given."""
    name = "".join(label for label, _, _ in windows) + "".join(map(str, scales))
    path = config.with_name(f"{name}.cfg")
    path.write_text(config.read_text()
                    + "windows = " + ",".join(f"{label}:{a}:{b}" for label, a, b in windows)
                    + "\nscales = " + ",".join(map(str, scales)) + "\n")
    return path


def run(config: Path) -> tuple[int, list[str], dict[str, list[str]]]:
    """A run's exit code, its ``error:`` lines and each report's lines; the
    cases its INFO line names as excluding agents count as one more report,
    ``excluded``, a line per case."""
    out = config.with_suffix(".out")
    stderr, excluded = io.StringIO(), []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: excluded.extend(
        record.getMessage().split("): ", 1)[1].split("; ")
        if record.msg.startswith("agents excluded") else ())
    logger = logging.getLogger("antifrag.pipeline")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--config", str(config), "--out", str(out)])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
    reports = {p.name: p.read_text().splitlines() for p in out.glob("*")} if out.is_dir() else {}
    return code, errors, {**reports, "excluded": ["window/measure/scale: ids", *excluded]}


def first_error(errors: list[str], labels: list[str]) -> str:
    """The error line of a run of every (window, scale) pair, from the
    error lines of the pairs run on their own. The run meets the pairs in
    order: windows in config order (``labels``) and, in each, its scales
    from the finest, as the config loader sorts them. Within a pair, its
    panel or measures fail before any of its cases (in sorted measure order)
    without a scored agent, so the run's error is the first failing pair's."""
    def rank(line):
        if found := (re.search(r" in window (\S+) at scale (\d+)$", line)
                     or re.search(r" in case ([^/]+)/[^/]+/(\d+)$", line)):
            return labels.index(found[1]), int(found[2])
        return len(labels), 0
    return min(errors, key=rank)


def pair_of(name: str, row: str) -> tuple[str, str]:
    """The (window, scale) of a report row or an ``excluded`` entry."""
    if name == "excluded":
        return tuple(row.split(":")[0].split("/")[::2])
    fields = row.split(",")
    return (fields[3], fields[2]) if name == "antifragility.csv" else (fields[0], fields[2])


@st.composite
def sparse_trees(draw, kind):
    """(agents, indexes, windows): ``random_market`` agents quoted
    every 1 to 40 days, one agent quoted at every such day and one at the
    first two; for stocks, indexes quoted on those days and, sometimes,
    every 1 to 80 days besides. One window, or two windows of equally many
    quote days, cover the whole span."""
    step = draw(st.integers(1, 40))
    # up to about a year a window, and from 3 quotes up
    n_quotes = 2 * (draw(st.sampled_from([0, 30, 90, 180])) // step + draw(st.integers(3, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents, _ = random_market(rng, kind, draw(st.integers(3, 9)), n_quotes, start=START)
    walks = np.exp(np.cumsum(rng.normal(0, 0.05, (3, n_quotes)), axis=1)).tolist()
    agents["FULL"] = [(START + dt.timedelta(days=i), 50 * p, 1e5 * v,
                       1e8 * c if kind == "crypto" else None)
                      for i, (p, v, c) in enumerate(zip(*walks))]
    agents["SHORT"] = agents["FULL"][:2]  # no afn where its two quotes split
    agents = {aid: spread(rows, step) for aid, rows in agents.items()}
    indexes = {}
    if kind == "stock":
        days = set(range(0, n_quotes * step, step))
        if extra := draw(st.none() | st.integers(1, 80)):
            days.update(range(draw(st.integers(0, extra - 1)), n_quotes * step, extra))
        for iid, level in INDEX_LEVELS:
            walk = level * np.exp(np.cumsum(rng.normal(0, 0.02, len(days))))
            indexes[iid] = [(START + dt.timedelta(days=d), v)
                            for d, v in zip(sorted(days), walk.tolist())]
    half = START + dt.timedelta(days=n_quotes // 2 * step)
    windows = [("early", START, half - dt.timedelta(days=1)),
               ("late", half, START + dt.timedelta(days=n_quotes * step - 1))]
    if draw(st.booleans()):
        windows = [("all", START, windows[1][2])]
    elif draw(st.booleans()):
        windows.reverse()
    return agents, indexes, windows


@pytest.mark.parametrize("kind", ["crypto", "stock"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_each_pair_reads_as_if_run_alone(kind, data):
    agents, indexes, windows = data.draw(sparse_trees(kind))
    order = data.draw(st.permutations([0, 1, 2]))
    with tempfile.TemporaryDirectory() as tmp:
        config = write_tree(Path(tmp), kind, agents, indexes)
        code, errors, reports = run(configured(config, windows, order))
        alone = {(w[0], str(s)): run(configured(config, [w], [s]))
                 for w in windows for s in sorted(order)}
    failed = [errors for c, errors, _ in alone.values() if c]
    if code or failed:
        assert (code, len(errors)) == (1, 1)
        assert errors[0] == first_error([e for errors in failed for e in errors],
                                        [label for label, _, _ in windows])
        return
    alive = json.loads("\n".join(reports["run_manifest.json"]))["alive_agents"]
    for (window, scale), (_, _, own) in alone.items():
        for name in (*CASE_REPORTS, "excluded"):
            header, *rows = reports[name]
            assert [header, *(r for r in rows if pair_of(name, r) == (window, scale))] == own[name]
        own_alive = json.loads("\n".join(own["run_manifest.json"]))["alive_agents"]
        assert alive[window][scale] == own_alive[window][scale]


def spy_build_panel(monkeypatch) -> list[tuple[str, int]]:
    """The (window, scale) of each ``build_panel`` call a run makes."""
    calls, real = [], pipeline.build_panel

    def build_panel(agents, indexes, window, scale):
        calls.append((window.label, int(scale)))
        return real(agents, indexes, window, scale)

    monkeypatch.setattr(pipeline, "build_panel", build_panel)
    return calls


@pytest.mark.parametrize("windows", ["2014", "2014, 2030"])
def test_a_run_fails_at_its_first_failing_pair_in_config_order(tmp_path, monkeypatch, capsys,
                                                                windows):
    # VIX quoted only after the stock fixture's agents stop: no agent has
    # afx in window 2014, whose first scale fails before window 2030, which
    # holds no agent at all, is built
    config = write_fixture_tree(tmp_path)[0]
    (config.parent / "indexes" / "vix.csv").write_text(
        "date,level\n2014-12-01,15.0\n2014-12-02,16.0\n2014-12-03,17.0\n")
    config.write_text(config.read_text().replace("windows = 2014\n", f"windows = {windows}\n"))
    calls = spy_build_panel(monkeypatch)
    assert cli.main(["run", "--config", str(config)]) == 1
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")] == [
        "error: no agent has antifragility in case 2014/afx/0"]
    assert calls == [("2014", 0)]


def every_35_days(kind: str, n_agents: int, seed: int):
    """``random_market`` agents and indexes quoted every 35 days from START,
    and one window over them: no week or month holds two quotes."""
    agents, indexes = random_market(np.random.default_rng(seed), kind, n_agents, 14, start=START)
    agents = {aid: spread(rows, 35) for aid, rows in agents.items()}
    indexes = {iid: spread(rows, 35) for iid, rows in indexes.items()}
    return agents, indexes, ("w", START, START + dt.timedelta(days=13 * 35))


@pytest.mark.parametrize("extra, computed, like_daily", [
    ((), [0], [True, True]),
    # March 2015 holds two quotes, in two weeks: the weekly scale relabels
    # the daily one, and the monthly scale is computed on its own
    ((dt.date(2015, 3, 31),), [0, 2], [True, False]),
    # in one week: the monthly scale relabels the weekly one
    ((dt.date(2015, 3, 13),), [0, 1], [False, False]),
    # and a week across July and August holds two: weeks and months are as
    # many, but neither scale relabels the other
    ((dt.date(2015, 3, 31), dt.date(2015, 8, 1)), [0, 1, 2], [False, False]),
], ids=["none", "two-in-a-month", "two-in-a-week", "both"])
def test_a_period_with_two_quotes_is_computed_on_its_own(tmp_path, monkeypatch, extra, computed,
                                                          like_daily):
    agents, _, window = every_35_days("crypto", 6, 3)
    # one more agent, quoted on every day of the others and the extra days
    days = sorted({r[0] for rows in agents.values() for r in rows}.union(extra))
    walks = np.exp(np.cumsum(np.random.default_rng(5).normal(0, 0.05, (3, len(days))), axis=1))
    agents["X"] = [(d, 50 * p, 1e5 * v, 1e8 * c) for d, p, v, c in zip(days, *walks.tolist())]
    path = write_tree(tmp_path, "crypto", agents, {})
    calls = spy_build_panel(monkeypatch)
    config, _, _ = load_config(configured(path, [window], [0, 1, 2]))
    lines = pipeline.execute(config)["antifragility.csv"].splitlines()[1:]
    assert calls == [("w", s) for s in computed]
    by_scale = {s: [r for r in lines if r.split(",")[2] == str(s)] for s in (0, 1, 2)}
    for scale in (0, 1, 2):
        own, _, _ = load_config(configured(path, [window], [scale]))
        assert by_scale[scale] == pipeline.execute(own)["antifragility.csv"].splitlines()[1:]
    a_values = {s: [r.split(",")[4] for r in by_scale[s]] for s in (0, 1, 2)}
    assert [a_values[s] == a_values[0] for s in (1, 2)] == like_daily


@pytest.mark.parametrize("kind", ["crypto", "stock"])
def test_aliased_cases_match_the_oracle(tmp_path, monkeypatch, kind):
    agents, indexes, (label, start, end) = every_35_days(kind, 12, 11)
    path = write_tree(tmp_path, kind, agents, indexes)
    calls = spy_build_panel(monkeypatch)
    config, _, _ = load_config(configured(path, [(label, start, end)], [0, 1, 2]))
    rows = pipeline.execute(config)["antifragility.csv"].splitlines()[1:]
    assert calls == [(label, 0)]
    measures = MEASURES_BY_KIND[kind]
    for scale in (1, 2):
        results = oracle_compute(agents, indexes, kind, scale, start, end, measures)["results"]
        got = {}
        for row in rows:
            aid, measure, s, _, a, n = row.split(",")
            if s == str(scale):
                got.setdefault(measure, {})[aid] = (float(a), int(n))
        assert got.keys() == set(measures)
        for measure, per_agent in got.items():
            want = results[measure]
            assert per_agent.keys() == want.keys()
            for aid, (a, n) in per_agent.items():
                assert n == want[aid][1]
                assert a == pytest.approx(want[aid][0], abs=1e-9, rel=1e-9)
