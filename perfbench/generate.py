"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a random-walk market in the style of
``tests/conftest.py::random_market``: each agent is born somewhere in the
first third of the calendar, dies somewhere in the last third, and misses
individual quotes at random. Floats are written with ``repr`` so the engine
and the oracle read back exactly the values generated here.

    python3 perfbench/generate.py --workload stock-8y --seed 0 --out DIR

writes ``DIR/agents/*.csv``, ``DIR/indexes/*.csv`` (stocks),
``DIR/top.json`` (when the workload has top-performer lists) and
``DIR/config.cfg``, and prints the input row count and size.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload


INDEX_LEVELS = (("vix", 15.0), ("nasdaq", 4e3), ("dji", 1.6e4), ("spx", 2e3))


def calendar_days(w: Workload) -> np.ndarray:
    """Day ordinals of every possible quote date of the workload."""
    days = np.arange(w.first_day.toordinal(), w.last_day.toordinal() + 1)
    if w.calendar == "weekday":
        return days[(days - 1) % 7 < 5]  # ordinal 1 (0001-01-01) is a Monday
    if w.calendar == "every-30-days":
        return days[::30]
    return days


def _walk(rng, level: float, sigma: float, n: int) -> np.ndarray:
    return level * np.exp(np.cumsum(rng.normal(0.0, sigma, n)))


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out``; return its size summary."""
    rng = np.random.default_rng(seed)
    days = calendar_days(w)
    n_days = len(days)
    iso = [dt.date.fromordinal(int(d)).isoformat() for d in days]

    agents_dir = out / "agents"
    agents_dir.mkdir(parents=True)
    prefix = "S" if w.kind == "stock" else "C"
    ids = [f"{prefix}{k:04d}" for k in range(w.n_agents)]
    # Births and deaths are stratified: each agent is born in its own slice of
    # the first third and dies in its own slice of the last third, the slices
    # shuffled by the seed. The values change with the seed; the input size
    # (and so the run time) barely does.
    third = n_days // 3
    births = ((rng.permutation(w.n_agents) + rng.random(w.n_agents)) / w.n_agents * third)
    deaths = n_days - 1 - ((rng.permutation(w.n_agents) + rng.random(w.n_agents))
                           / w.n_agents * third)
    rows = 0
    for aid, born, dead in zip(ids, births.astype(int).tolist(), deaths.astype(int).tolist()):
        span = np.arange(born, dead + 1)
        while True:
            keep = span[rng.random(len(span)) >= w.gap_prob]
            if len(keep) >= 2:
                break
        n = len(keep)
        prices = _walk(rng, 50.0, 0.02, n).tolist()
        volumes = _walk(rng, 1e5, 0.2, n).tolist()
        dates = [iso[i] for i in keep.tolist()]
        if w.kind == "stock":
            lines = ["date,open,volume"]
            lines += [f"{d},{p!r},{v!r}" for d, p, v in zip(dates, prices, volumes)]
        else:
            caps = _walk(rng, 1e8, 0.05, n).tolist()
            blank = (rng.random(n) < w.cap_blank_prob).tolist()
            lines = ["date,open,volume,market_cap"]
            lines += [
                f"{d},{p!r},{v!r}," + ("" if b else repr(c))
                for d, p, v, c, b in zip(dates, prices, volumes, caps, blank)
            ]
        (agents_dir / f"{aid}.csv").write_text("\n".join(lines) + "\n")
        rows += n

    config = [
        f"market_kind = {w.kind}",
        "data_dir = agents",
        "output_dir = out",
        f"windows = {','.join(w.windows)}",
        "scales = 0,1,2",
        f"worker_count = {w.worker_count}",
    ]
    if w.kind == "stock":
        index_dir = out / "indexes"
        index_dir.mkdir()
        for name, level in INDEX_LEVELS:
            walk = _walk(rng, level, 0.02, n_days).tolist()
            lines = ["date,level"] + [f"{d},{v!r}" for d, v in zip(iso, walk)]
            (index_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
            rows += n_days
        config.append("index_dir = indexes")
    if w.top_per_year:
        years = range(w.first_day.year, w.last_day.year + 1)
        top = {
            str(y): sorted(rng.choice(ids, size=w.top_per_year, replace=False).tolist())
            for y in years
        }
        (out / "top.json").write_text(json.dumps(top, indent=1) + "\n")
        config.append("top_performers_path = top.json")
    (out / "config.cfg").write_text("\n".join(config) + "\n")

    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"input_rows": rows, "input_mb": size / 1e6}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    print(json.dumps(generate(WORKLOADS[args.workload], args.seed, args.out)))


if __name__ == "__main__":
    main()
