"""The benchmark's workloads: what ``generate.py`` writes and how it is run.

It imports no numpy, so ``run.py`` can import it and still stay smaller
than the CLI runs it times: the peak RSS ``wait4`` reports for a child
includes its parent's peak at the time of the spawn.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    n_agents: int
    first_day: dt.date
    last_day: dt.date
    calendar: str  # "weekday", "daily" or "every-30-days"
    windows: tuple[str, ...]
    worker_count: int
    gap_prob: float
    cap_blank_prob: float
    top_per_year: int
    oracle_case: tuple[str, int]  # (window label, scale) checked against the oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stock-8y",
            why="8 yearly windows x 3 scales x 4 stock measures with 2 workers: "
            "panel building and measures dominate; only user of the process pool",
            kind="stock",
            n_agents=30,
            first_day=dt.date(2010, 1, 1),
            last_day=dt.date(2017, 12, 31),
            calendar="weekday",
            windows=tuple(str(y) for y in range(2010, 2018)),
            worker_count=2,
            gap_prob=0.07,
            cap_blank_prob=0.0,
            top_per_year=10,
            oracle_case=("2013", 1),
        ),
        Workload(
            name="crypto-crash",
            why="8 years of daily crypto quotes analysed over one 11-month window: "
            "CSV load dominates",
            kind="crypto",
            n_agents=50,
            first_day=dt.date(2013, 1, 1),
            last_day=dt.date(2020, 12, 31),
            calendar="daily",
            windows=("crash:2018-01-01:2018-11-30",),
            worker_count=1,
            gap_prob=0.03,
            cap_blank_prob=0.02,
            top_per_year=0,
            oracle_case=("crash", 0),
        ),
        Workload(
            name="crypto-monthly-wide",
            why="150 sparse crypto agents over 6 yearly windows: few input rows, "
            "many report rows, so analysis and rendering dominate",
            kind="crypto",
            n_agents=150,
            first_day=dt.date(2013, 1, 1),
            last_day=dt.date(2018, 12, 31),
            calendar="every-30-days",
            windows=tuple(str(y) for y in range(2013, 2019)),
            worker_count=1,
            gap_prob=0.0,
            cap_blank_prob=0.02,
            top_per_year=0,
            oracle_case=("2015", 0),
        ),
    )
}
