"""Built-in synthetic dataset for smoke tests and worked examples.

One analysis window (calendar 2014, data 2014-01-06 through 2014-05-30):

* crypto: 3 agents quoted every calendar day, so the monthly scale gives a
  clean 3-agent, 5-period panel. ZCOIN has two missing market caps.
* stocks: 4 agents quoted on weekdays plus the four index series. CCC is born
  mid-window; DDD has a constant price, whose antifragility must be exactly 0.

All values come from small integer congruences, so regenerating the fixture
is exact and needs no random source.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

from .ingestion import (
    CRYPTO,
    STOCK,
    AgentSeries,
    AnalysisWindow,
    IndexSeries,
    agent_csv_text,
)

FIRST_DAY = dt.date(2014, 1, 6)  # a Monday
LAST_DAY = dt.date(2014, 5, 30)
WINDOW = AnalysisWindow(dt.date(2014, 1, 1), dt.date(2014, 12, 31), "2014")

STOCK_TOP = {"2014": ["AAA", "DDD"]}
CRYPTO_TOP = {"2014": ["XCOIN"]}


def _days(start=FIRST_DAY, weekdays_only=False):
    day = start
    out = []
    while day <= LAST_DAY:
        if not weekdays_only or day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _ordinals(days) -> np.ndarray:
    return np.array([day.toordinal() for day in days], dtype=np.int64)


def _series(agent_id, kind, days, price, volume, cap=lambda i, day: None):
    n = range(len(days))
    columns = [list(map(price, n)), list(map(volume, n)), list(map(cap, n, days))]
    return AgentSeries(agent_id, kind, _ordinals(days), *np.array(columns, dtype=np.float64))


def stock_agents() -> list[AgentSeries]:
    days = _days(weekdays_only=True)
    born_later = [d for d in days if d >= dt.date(2014, 2, 17)]
    return [
        _series("AAA", STOCK, days,
                lambda i: 20 + 0.5 * i + 0.25 * ((3 * i) % 7),
                lambda i: 1000.0 + 40 * ((5 * i) % 11)),
        _series("BBB", STOCK, days,
                lambda i: 150 - 0.8 * i + 0.3 * ((2 * i) % 5),
                lambda i: 2500.0 + 60 * ((7 * i) % 13)),
        _series("CCC", STOCK, born_later,
                lambda i: 10 + 0.6 * ((7 * i) % 9),
                lambda i: 300.0 + 25 * ((4 * i) % 7)),
        _series("DDD", STOCK, days,
                lambda i: 50.0,
                lambda i: 800.0 + 10 * ((i * i) % 5)),
    ]


def stock_indexes() -> list[IndexSeries]:
    days = _days(weekdays_only=True)
    levels = {
        "VIX": lambda j: 14 + 0.5 * ((5 * j) % 9),
        "NASDAQ": lambda j: 4100.0 + 6 * j + 5 * ((3 * j) % 8),
        "DJI": lambda j: 16300.0 + 12 * j + 14 * ((2 * j) % 6),
        "SPX": lambda j: 1830.0 + 2 * j + 3 * ((j * j) % 7),
    }
    return [IndexSeries(iid, _ordinals(days),
                        np.array(list(map(fn, range(len(days)))), dtype=np.float64))
            for iid, fn in levels.items()]


def crypto_agents() -> list[AgentSeries]:
    days = _days()
    no_cap = {dt.date(2014, 3, 10), dt.date(2014, 3, 11)}
    return [
        _series("XCOIN", CRYPTO, days,
                lambda i: 800 + 2.5 * i + 4 * ((3 * i) % 11),
                lambda i: 9000.0 + 120 * ((7 * i) % 13),
                lambda i, d: 1_000_000_000 + 2_500_000 * i + 1_000_000 * ((5 * i) % 9)),
        _series("YCOIN", CRYPTO, days,
                lambda i: 80 - 0.3 * i + 0.8 * ((2 * i) % 7),
                lambda i: 52000.0 + 400 * ((3 * i) % 17),
                lambda i, d: 450_000_000 + 1_200_000 * i + 2_000_000 * ((i * i) % 5)),
        _series("ZCOIN", CRYPTO, days,
                lambda i: 2 + 0.05 * ((5 * i) % 13),
                lambda i: 700.0 + 15 * ((9 * i) % 23),
                lambda i, d: None if d in no_cap
                else 90_000_000 + 350_000 * i + 100_000 * ((4 * i) % 11)),
    ]


def _write_config(path: Path, kind: str, with_indexes: bool) -> None:
    lines = [
        f"market_kind = {kind}",
        "data_dir = agents",
        "output_dir = output",
        "windows = 2014",
        "scales = 0,1,2",
        "top_performers_path = top_performers.json",
    ]
    if with_indexes:
        lines.insert(2, "index_dir = indexes")
    path.write_text("\n".join(lines) + "\n")


def write_fixture_tree(out_dir: Path) -> list[Path]:
    """Write the full fixture: stocks/ and crypto/ trees, each with a config.

    Returns the two config paths (stocks first).
    """
    out_dir = Path(out_dir)
    configs = []
    for name, kind, agents, indexes, top in (
        ("stocks", STOCK, stock_agents(), stock_indexes(), STOCK_TOP),
        ("crypto", CRYPTO, crypto_agents(), [], CRYPTO_TOP),
    ):
        tree = out_dir / name
        (tree / "agents").mkdir(parents=True, exist_ok=True)
        for series in agents:
            (tree / "agents" / f"{series.agent_id}.csv").write_text(agent_csv_text(series))
        if indexes:
            (tree / "indexes").mkdir(exist_ok=True)
        for index in indexes:
            lines = ["date,level"]
            lines += [f"{day.isoformat()},{level!r}" for day, level in index.values]
            path = tree / "indexes" / f"{index.index_id.lower()}.csv"
            path.write_text("\n".join(lines) + "\n")
        (tree / "top_performers.json").write_text(json.dumps(top, indent=2, sort_keys=True) + "\n")
        _write_config(tree / "config.cfg", kind, with_indexes=bool(indexes))
        configs.append(tree / "config.cfg")
    return configs
