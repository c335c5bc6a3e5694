"""Loaders for per-agent market histories, index series, and top-performer lists.

Agent files are CSV with header ``date,open,volume`` plus an optional
``market_cap`` column (cryptocurrencies only). Index files are CSV with header
``date,level``. Top-performer files are JSON objects mapping a year to a list
of agent ids. All dates are ISO ``YYYY-MM-DD``, the only date form accepted.
CSV files are UTF-8 and may start with a byte-order mark and end with empty
lines.

A loaded series is a record of numpy columns: dates as int64 day ordinals
(``date.toordinal()``), values as float64, and NaN for a missing market cap.
Every invariant is checked once, when a series is loaded or built with
``from_rows``; slicing returns views of columns that are already checked.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import (
    CRYPTO,
    INDEXES_BY_MEASURE,
    MARKET_KINDS,
    SAFE_NAME_RULE,
    STOCK,
    AnalysisWindow,
    is_safe_name,
    parse_date,
)
from .errors import IngestionError

INDEX_IDS = sum(INDEXES_BY_MEASURE.values(), ())

# A larger value is an ingestion error. Up to it, every square and sum of
# squares the reports take (pr_std, pearson) stays finite; no market value nears it.
MAX_VALUE = 1e100


def to_dates(days: np.ndarray) -> tuple[dt.date, ...]:
    """Day ordinals as dates."""
    return tuple(map(dt.date.fromordinal, days.tolist()))


def _built_days(who: str, rows) -> np.ndarray:
    if not rows:
        raise IngestionError(f"{who}: no observations")
    return np.array([r[0].toordinal() for r in rows], dtype=np.int64)


def _check_built(who: str, days: np.ndarray, columns, checks) -> None:
    """Raise on the first failing check: strictly increasing days, the
    (bad-row mask, problem) ``checks``, then no value of ``columns`` above MAX_VALUE."""
    increasing = np.diff(days, prepend=days[0] - 1) > 0
    too_large = np.any([c > MAX_VALUE for c in columns], axis=0)
    for bad, problem in ((~increasing, "dates not strictly increasing"), *checks,
                         (too_large, f"value above {MAX_VALUE:g}")):
        if bad.any():
            at = dt.date.fromordinal(int(days[bad.argmax()]))
            raise IngestionError(f"{who}: {problem} at {at}")


@dataclass(frozen=True, eq=False)
class AgentSeries:
    """Full or sliced history for one stock or cryptocurrency.

    ``days`` holds strictly increasing day ordinals; ``open``, ``volume`` and
    ``cap`` align with it, ``cap`` being NaN where no market cap was given
    (always, for stocks).
    """

    agent_id: str
    market_kind: str
    days: np.ndarray
    open: np.ndarray
    volume: np.ndarray
    cap: np.ndarray

    def __len__(self):
        return len(self.days)

    @property
    def first_date(self) -> dt.date:
        return dt.date.fromordinal(int(self.days[0]))

    @classmethod
    def from_rows(cls, agent_id: str, market_kind: str, rows) -> "AgentSeries":
        """Build from (date, open, volume, cap_or_None) rows in date order."""
        if market_kind not in MARKET_KINDS:
            raise IngestionError(
                f"agent {agent_id}: unknown market kind {market_kind!r}"
            )
        days = _built_days(f"agent {agent_id}", rows)
        open_ = np.array([r[1] for r in rows], dtype=np.float64)
        volume = np.array([r[2] for r in rows], dtype=np.float64)
        cap = np.array([math.nan if r[3] is None else r[3] for r in rows],
                       dtype=np.float64)
        if market_kind == STOCK and not np.isnan(cap).all():
            raise IngestionError(f"agent {agent_id}: market_cap not allowed for stocks")
        _check_built(f"agent {agent_id}", days, (open_, volume, cap), (
            ((open_ < 0) | (volume < 0), "negative value"),
            (cap < 0, "negative market_cap"),
        ))
        return cls(agent_id, market_kind, days, open_, volume, cap)


@dataclass(frozen=True, eq=False)
class IndexSeries:
    """A market index: strictly increasing day ordinals and their levels."""

    index_id: str
    days: np.ndarray
    levels: np.ndarray

    def __len__(self):
        return len(self.days)

    @property
    def values(self) -> tuple[tuple[dt.date, float], ...]:
        """The (date, level) pairs as Python objects."""
        return tuple(zip(to_dates(self.days), self.levels.tolist()))

    @classmethod
    def from_rows(cls, index_id: str, rows) -> "IndexSeries":
        """Build from (date, level) rows in date order."""
        if index_id not in INDEX_IDS:
            raise IngestionError(f"unknown index id {index_id!r}")
        days = _built_days(f"index {index_id}", rows)
        levels = np.array([r[1] for r in rows], dtype=np.float64)
        _check_built(f"index {index_id}", days, (levels,),
                     ((levels < 0, "negative level"),))
        return cls(index_id, days, levels)


@dataclass(frozen=True)
class TopPerformerList:
    """Agents singled out as the best performers of one year."""

    year: int
    agent_ids: frozenset[str]
    source_label: str

    def __post_init__(self):
        if not self.agent_ids:
            raise IngestionError(f"empty top-performer list for year {self.year}")


def _parse_date(text: str, path: Path, line: int) -> dt.date:
    try:
        return parse_date(text.strip())
    except ValueError:
        raise IngestionError(f"{path}: line {line}: bad date {text!r}") from None


def _parse_real(text: str, path: Path, line: int, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"{path}: line {line}: bad {field} value {text!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise IngestionError(f"{path}: line {line}: non-finite {field} value")
    if value < 0:
        raise IngestionError(f"{path}: line {line}: negative {field} value {text!r}")
    if value > MAX_VALUE:
        raise IngestionError(f"{path}: line {line}: {field} value above {MAX_VALUE:g}")
    return value


def _read_rows(path: Path) -> list[list[str]]:
    """The rows of a UTF-8 CSV file, without a byte-order mark or empty lines
    at the end; an empty line before a row stays (and fails the field count)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise IngestionError(f"{path}: empty file")
    return rows


def _parse_columns(body, width: int, blank_last: bool):
    """Day ordinals and float64 value columns of the data rows.

    Each cell is parsed once, with the same calls the row-by-row check uses.
    A blank cell in the last column becomes NaN when ``blank_last``; any other
    NaN fails the finiteness count. Returns None when a row has the wrong
    field count, a cell does not parse, or a value is non-finite, negative or
    above MAX_VALUE.
    """
    if set(map(len, body)) != {width}:
        return None
    cells = list(zip(*body))
    dates = list(map(str.strip, cells[0]))
    # parse_date's YYYY-MM-DD shape, checked without a call per date
    joined, dashes = "".join(dates), "-" * len(dates)
    if set(map(len, dates)) != {10} or joined[4::10] != dashes or joined[7::10] != dashes:
        return None
    blanks = 0
    try:
        days = np.array(
            list(map(dt.date.toordinal, map(dt.date.fromisoformat, dates))),
            dtype=np.int64,
        )
        values = [list(map(float, c)) for c in cells[1 : width - blank_last]]
        if blank_last:
            last = list(map(str.strip, cells[-1]))
            blanks = last.count("")
            values.append([float(t) if t else math.nan for t in last])
    except ValueError:
        return None
    columns = [np.array(v, dtype=np.float64) for v in values]
    if sum(np.count_nonzero(~np.isfinite(c)) for c in columns) != blanks:
        return None
    if any(((c < 0) | (c > MAX_VALUE)).any() for c in columns):
        return None
    return days, columns


def _raise_first_bad_row(path: Path, header: list[str], body, in_order: bool) -> NoReturn:
    """Check the rows one by one and raise on the first offending line.

    Only called once the column checks have failed, so that every message
    names the line a row-by-row reader would stop at.
    """
    seen: dict[dt.date, int] = {}
    prev = None
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        day = _parse_date(row[0], path, lineno)
        if in_order:
            if prev is not None and day <= prev:
                raise IngestionError(f"{path}: line {lineno}: out-of-order date {day}")
            prev = day
        elif day in seen:
            raise IngestionError(
                f"{path}: line {lineno}: duplicate date {day} (first at line {seen[day]})"
            )
        seen[day] = lineno
        for field, text in zip(header[1:], row[1:]):
            if field != "market_cap" or text.strip() != "":
                _parse_real(text, path, lineno, field)
    raise AssertionError(f"{path}: column checks failed on rows that pass one by one")


def load_agent_series(path: Path, market_kind: str) -> AgentSeries:
    """Read one agent CSV. The agent id is the file's stem.

    Rows may arrive in any order; they are sorted by date. Duplicate dates,
    malformed fields, a market_cap column in a stock file, and an id outside
    ``[A-Za-z0-9._-]+`` are errors.
    """
    path = Path(path)
    if not is_safe_name(path.stem):
        raise IngestionError(f"{path}: agent id {path.stem!r} {SAFE_NAME_RULE}")
    rows = _read_rows(path)
    header = [h.strip() for h in rows[0]]
    if header == ["date", "open", "volume"]:
        has_cap = False
    elif header == ["date", "open", "volume", "market_cap"]:
        if market_kind == STOCK:
            raise IngestionError(f"{path}: market_cap not allowed for stocks")
        has_cap = True
    else:
        raise IngestionError(f"{path}: bad header {header!r}")
    body = rows[1:]
    if not body:
        raise IngestionError(f"{path}: no data rows")

    parsed = _parse_columns(body, len(header), blank_last=has_cap)
    if parsed is None:
        _raise_first_bad_row(path, header, body, in_order=False)
    days, columns = parsed
    order = np.argsort(days, kind="stable")
    days = days[order]
    if (days[1:] == days[:-1]).any():
        _raise_first_bad_row(path, header, body, in_order=False)
    open_, volume = columns[0][order], columns[1][order]
    cap = columns[2][order] if has_cap else np.full(len(days), np.nan)
    return AgentSeries(path.stem, market_kind, days, open_, volume, cap)


def load_index_series(path: Path, index_id: str) -> IndexSeries:
    """Read one index CSV. Dates must already be strictly increasing."""
    path = Path(path)
    if index_id not in INDEX_IDS:
        raise IngestionError(f"{path}: unknown index id {index_id!r}")
    rows = _read_rows(path)
    header = [h.strip() for h in rows[0]]
    if header != ["date", "level"]:
        raise IngestionError(f"{path}: bad header {rows[0]!r}")
    body = rows[1:]
    if not body:
        raise IngestionError(f"index {index_id}: no observations")

    parsed = _parse_columns(body, 2, blank_last=False)
    if parsed is None or (np.diff(parsed[0]) <= 0).any():
        _raise_first_bad_row(path, header, body, in_order=True)
    days, (levels,) = parsed
    return IndexSeries(index_id, days, levels)


def load_top_performers(path: Path) -> list[TopPerformerList]:
    """Read a top-performer JSON file, one list per year, sorted by year.

    A year listed more than once has its id lists unioned.
    """
    path = Path(path)

    def merge_pairs(pairs):
        merged: dict[str, list] = {}
        for key, value in pairs:
            if key in merged:
                if not isinstance(value, list) or not isinstance(merged[key], list):
                    raise IngestionError(f"{path}: year {key}: expected a list of ids")
                merged[key] = merged[key] + value
            else:
                merged[key] = value
        return merged

    with open(path) as fh:
        try:
            data = json.load(fh, object_pairs_hook=merge_pairs)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise IngestionError(f"{path}: expected an object mapping year to id list")

    lists = []
    for key, ids in data.items():
        try:
            year = int(key)
        except ValueError:
            raise IngestionError(f"{path}: bad year key {key!r}") from None
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise IngestionError(f"{path}: year {key}: expected a list of ids")
        if not ids:
            raise IngestionError(f"{path}: empty top-performer list for year {year}")
        lists.append(TopPerformerList(year, frozenset(ids), path.name))
    lists.sort(key=lambda t: t.year)
    return lists


def slice_window(series: AgentSeries, window: AnalysisWindow) -> AgentSeries | None:
    """Restrict a series to the window; None when fewer than 2 rows remain.

    The result holds views of the series' columns.
    """
    inside = window.span(series.days)
    if inside.stop - inside.start < 2:
        return None
    return AgentSeries(
        series.agent_id,
        series.market_kind,
        series.days[inside],
        series.open[inside],
        series.volume[inside],
        series.cap[inside],
    )


def agent_csv_text(series: AgentSeries) -> str:
    """Canonical CSV serialization; load_agent_series inverts it exactly."""
    has_cap = not np.isnan(series.cap).all()
    header = "date,open,volume,market_cap" if has_cap else "date,open,volume"
    lines = [header]
    for day, open_, volume, cap in zip(
        to_dates(series.days),
        series.open.tolist(),
        series.volume.tolist(),
        series.cap.tolist(),
    ):
        row = f"{day.isoformat()},{open_!r},{volume!r}"
        if has_cap:
            row += "," if math.isnan(cap) else f",{cap!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_agent_csv(series: AgentSeries, path: Path) -> None:
    Path(path).write_text(agent_csv_text(series))
