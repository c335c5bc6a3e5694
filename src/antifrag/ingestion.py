"""Loaders for per-agent market histories, index series, and top-performer lists.

Agent files are CSV with header ``date,open,volume`` plus an optional
``market_cap`` column (cryptocurrencies only). Index files are CSV with header
``date,level``. Top-performer files are JSON objects mapping a year to a list
of agent ids. All dates are ISO ``YYYY-MM-DD``, the only date form accepted.
CSV files are UTF-8, have no quoting, and may start with a byte-order mark and
end with empty lines.

A loaded series is a record of numpy columns: dates as int64 day ordinals
(``date.toordinal()``), values as float64, and NaN for a missing market cap.
Its invariants are written once, in ``_column_fault``, for series loaded from
a file and built with ``from_rows`` alike; slicing returns views of columns
that are already checked.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import math
import re
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter, lt
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
    read_text,
    split_lines,
)
from .errors import IngestionError

INDEX_IDS = sum(INDEXES_BY_MEASURE.values(), ())

# A larger value is an ingestion error. Up to it, every square and sum of
# squares the reports take (pr_std, pearson) stays finite; no market value nears it.
MAX_VALUE = 1e100

_DATE = itemgetter(slice(0, 10))  # a line's first 10 characters

# A value cell that float() reads as a finite number from 0 to MAX_VALUE: no
# sign, padding or letter but "e", and an integer part of 2 to 100 digits, or
# of one digit and then maybe an exponent of at most two digits, or none.
_NUM = r"(?:[0-9]{2,100}(?:\.[0-9]*)?|[0-9](?:\.[0-9]*)?(?:e[+-]?[0-9]{1,2})?|\.[0-9]+)"


@functools.cache
def _plain_lines(width: int) -> re.Pattern:
    """Agent data lines, each ended by \\n, of a YYYY-MM-DD-shaped date and
    _NUM value cells (a market cap may be blank), by field count (3 or 4).
    Each pattern is compiled on first use: only a window that leaves rows out
    reads one."""
    cap = {3: "", 4: f",{_NUM}?"}[width]
    return re.compile(rf"(?:[0-9-]{{10}},{_NUM},{_NUM}{cap}\n)*")


def to_dates(days: np.ndarray) -> tuple[dt.date, ...]:
    """Day ordinals as dates."""
    return tuple(map(dt.date.fromordinal, days.tolist()))


def _column_fault(days: np.ndarray, values, cap=None) -> tuple[str, int] | None:
    """The first failing check of a series and the first row it fails at, or
    None: days strictly increasing, then no value of the ``values`` columns or
    of ``cap`` negative, none above MAX_VALUE, and none NaN except in ``cap``,
    where NaN is a missing cap."""
    every = np.array([*values] if cap is None else [*values, cap])
    unordered = np.concatenate(([False], days[1:] <= days[:-1]))
    for bad, problem in (
        (unordered, "dates not strictly increasing"),
        ((every < 0).any(axis=0), "negative value"),
        ((every > MAX_VALUE).any(axis=0), f"value above {MAX_VALUE:g}"),
        (np.isnan(every[: len(values)]).any(axis=0), "NaN value"),
    ):
        if bad.any():
            return problem, int(bad.argmax())
    return None


def _built_columns(who: str, rows, has_cap: bool):
    """Checked day ordinals and float64 columns of (date, open, volume, cap)
    rows (a None cap becomes NaN) when ``has_cap``, else of (date, level) rows."""
    if not rows:
        raise IngestionError(f"{who}: no observations")
    width = 4 if has_cap else 2
    for number, row in enumerate(rows, 1):
        if len(row) != width:
            raise IngestionError(f"{who}: row {number} has {len(row)} fields, expected {width}")
    days = np.array([r[0].toordinal() for r in rows], dtype=np.int64)
    columns = [np.array(c, dtype=np.float64) for c in list(zip(*rows))[1:]]
    values, cap = (columns[:-1], columns[-1]) if has_cap else (columns, None)
    if fault := _column_fault(days, values, cap):
        problem, row = fault
        raise IngestionError(f"{who}: {problem} at {dt.date.fromordinal(int(days[row]))}")
    return days, columns


class AgentSeries:
    """Full or sliced history for one stock or cryptocurrency.

    ``days`` holds strictly increasing day ordinals; ``open``, ``volume`` and
    ``cap`` align with it, ``cap`` being NaN where no market cap was given
    (always, for stocks). Two series are equal only when they are one object.
    """

    __slots__ = ("agent_id", "market_kind", "days", "open", "volume", "cap")

    def __init__(self, agent_id: str, market_kind: str, days: np.ndarray,
                 open: np.ndarray, volume: np.ndarray, cap: np.ndarray):
        self.agent_id = agent_id
        self.market_kind = market_kind
        self.days = days
        self.open = open
        self.volume = volume
        self.cap = cap

    def __len__(self):
        return len(self.days)

    @property
    def first_date(self) -> dt.date:
        return dt.date.fromordinal(int(self.days[0]))

    @classmethod
    def from_rows(cls, agent_id: str, market_kind: str, rows) -> "AgentSeries":
        """Build from (date, open, volume, cap_or_None) rows in date order."""
        if not is_safe_name(agent_id):
            raise IngestionError(f"agent id {agent_id!r} {SAFE_NAME_RULE}")
        if market_kind not in MARKET_KINDS:
            raise IngestionError(
                f"agent {agent_id}: unknown market kind {market_kind!r}"
            )
        days, (open_, volume, cap) = _built_columns(f"agent {agent_id}", rows, True)
        if market_kind == STOCK and not np.isnan(cap).all():
            raise IngestionError(f"agent {agent_id}: market_cap not allowed for stocks")
        return cls(agent_id, market_kind, days, open_, volume, cap)


class IndexSeries:
    """A market index: strictly increasing day ordinals and their levels.
    Two series are equal only when they are one object."""

    __slots__ = ("index_id", "days", "levels")

    def __init__(self, index_id: str, days: np.ndarray, levels: np.ndarray):
        self.index_id = index_id
        self.days = days
        self.levels = levels

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
        days, (levels,) = _built_columns(f"index {index_id}", rows, False)
        return cls(index_id, days, levels)


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


def _read_lines(path: Path) -> list[str]:
    """The lines (ended by \\n, \\r\\n or \\r) of a UTF-8 CSV file, less a
    byte-order mark and empty lines at the end; an empty line before a row stays."""
    lines = split_lines(read_text(path, IngestionError))
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise IngestionError(f"{path}: empty file")
    return lines


def _fields(line: str) -> list[str]:
    """The fields of one line; an empty line has none."""
    return line.split(",") if line else []


def _date_shaped(dates: list[str]) -> bool:
    """Whether every date has parse_date's YYYY-MM-DD shape (10 characters,
    dashes at 4 and 7), checked without a call per date."""
    joined, dashes = "".join(dates), "-" * len(dates)
    return set(map(len, dates)) == {10} and joined[4::10] == dashes and joined[7::10] == dashes


def _parse_columns(body: list[str], width: int):
    """Day ordinals and float64 value columns of the data lines.

    The lines are split as one text, each column a stride of its fields, and
    each cell is parsed once, with the same calls the row-by-row check uses.
    A fourth column is the market cap: a blank cell there becomes NaN, and a
    NaN there that is not blank (a ``nan`` cell) fails the blank count. Returns
    None when a line has the wrong field count, a cell does not parse, or the
    blank count fails; the values themselves are checked by ``_column_fault``.
    """
    if set(map(str.count, body, repeat(","))) != {width - 1}:
        return None
    flat = ",".join(body).split(",")
    cells = [flat[j::width] for j in range(width)]
    days = list(map(str.strip, cells[0]))  # the date texts until they are parsed
    if not _date_shaped(days):
        return None
    try:
        days = np.array(list(map(dt.date.toordinal, map(dt.date.fromisoformat, days))),
                        dtype=np.int64)
        values = [list(map(float, c)) for c in cells[1:3]]  # level, or open and volume
        if width == 4:
            cap = list(map(str.strip, cells[3]))
            values.append([float(t) if t else math.nan for t in cap])
    except ValueError:
        return None
    columns = [np.array(v, dtype=np.float64) for v in values]
    if width == 4 and np.count_nonzero(np.isnan(columns[2])) != cap.count(""):
        return None
    return days, columns


def _window(body: list[str], width: int, span: tuple[dt.date, dt.date]) -> list[str]:
    """The agent data lines to convert: the earliest and those inside the
    span, in date order, or every line when the first and last lines start
    inside the span (as every line of a sorted file then does), or when the
    lines to leave out cannot be told apart or certified without converting
    them.

    The dates, each line's first 10 characters, must be YYYY-MM-DD-shaped and
    unique; lines out of their text order (newest first, say) are sorted, and
    the span is bisected on the sorted texts, which for valid dates is date
    order. Each line left out must have a date that parses and be all
    ``_plain_lines`` cells: it would pass every check, so the kept lines fail
    where all lines would. A kept line's date is parsed once, from its
    stripped first field; when that parses, it is those 10 characters.
    """
    first, last = span[0].isoformat(), span[1].isoformat()
    ends = sorted((body[0][:10], body[-1][:10]))
    if first <= ends[0] and ends[1] <= last:
        return body
    dates = list(map(_DATE, body))
    if not _date_shaped(dates):
        return body
    if not all(map(lt, dates, dates[1:])):  # newest first, or shuffled
        body = sorted(body)  # by date, when the 10-character dates are unique
        dates = list(map(_DATE, body))
        if not all(map(lt, dates, dates[1:])):  # a date repeats
            return body
    start = max(bisect_left(dates, first), 1)
    stop = max(bisect_right(dates, last), start)
    try:
        list(map(dt.date.fromisoformat, dates[1:start] + dates[stop:]))
    except ValueError:
        return body
    # matched 256 lines at a time: one match over every line left out keeps a
    # backtracking state per line (about 3 MB for 2,000 lines), and 64 lines
    # a match cost crypto-crash about 3% more CPU
    left_out, plain = body[1:start] + body[stop:], _plain_lines(width).fullmatch
    if not all(plain("\n".join(left_out[i : i + 256]) + "\n") for i in range(0, len(left_out), 256)):
        return body
    return body[:1] + body[start:stop]


def _raise_first_bad_row(path: Path, header: list[str], body, in_order: bool) -> NoReturn:
    """Check the lines one by one and raise on the first offending one.

    Only called once the column checks have failed, so that every message
    names the line a row-by-row reader would stop at.
    """
    seen: dict[dt.date, int] = {}
    prev = None
    for lineno, row in enumerate(map(_fields, body), start=2):
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


def load_agent_series(path: Path, market_kind: str,
                      span: tuple[dt.date, dt.date] = (dt.date.min, dt.date.max)) -> AgentSeries:
    """Read one agent CSV. The agent id is the file's stem.

    Rows may arrive in any order; they are sorted by date. Duplicate dates,
    malformed fields, a market_cap column in a stock file, and an id outside
    ``[A-Za-z0-9._-]+`` are errors. The series keeps the file's earliest row
    and the rows in ``span`` (a first and last day, every date by default);
    every row is still checked, and the same files fail with the same errors.
    """
    path = Path(path)
    if not is_safe_name(path.stem):
        raise IngestionError(f"{path}: agent id {path.stem!r} {SAFE_NAME_RULE}")
    lines = _read_lines(path)
    header = [h.strip() for h in _fields(lines[0])]
    if header not in (["date", "open", "volume"], ["date", "open", "volume", "market_cap"]):
        raise IngestionError(f"{path}: bad header {header!r}")
    width = len(header)
    if width == 4 and market_kind == STOCK:
        raise IngestionError(f"{path}: market_cap not allowed for stocks")
    body = lines[1:]
    if not body:
        raise IngestionError(f"{path}: no data rows")

    parsed = _parse_columns(_window(body, width, span), width)
    if parsed is None:
        _raise_first_bad_row(path, header, body, in_order=False)
    days, columns = parsed
    order = np.argsort(days, kind="stable")
    days, open_, volume = days[order], columns[0][order], columns[1][order]
    cap = columns[2][order] if width == 4 else np.full(len(days), np.nan)
    if _column_fault(days, (open_, volume), cap):
        _raise_first_bad_row(path, header, body, in_order=False)
    rows = (days >= span[0].toordinal()) & (days <= span[1].toordinal())
    rows[0] = True  # the earliest row
    if not rows.all():
        days, open_, volume, cap = days[rows], open_[rows], volume[rows], cap[rows]
    return AgentSeries(path.stem, market_kind, days, open_, volume, cap)


def load_index_series(path: Path, index_id: str) -> IndexSeries:
    """Read one index CSV. Dates must already be strictly increasing."""
    path = Path(path)
    if index_id not in INDEX_IDS:
        raise IngestionError(f"{path}: unknown index id {index_id!r}")
    lines = _read_lines(path)
    header = [h.strip() for h in _fields(lines[0])]
    if header != ["date", "level"]:
        raise IngestionError(f"{path}: bad header {_fields(lines[0])!r}")
    body = lines[1:]
    if not body:
        raise IngestionError(f"index {index_id}: no observations")

    parsed = _parse_columns(body, 2)
    if parsed is None or _column_fault(*parsed):
        _raise_first_bad_row(path, header, body, in_order=True)
    days, (levels,) = parsed
    return IndexSeries(index_id, days, levels)


def load_top_performers(path: Path) -> dict[int, frozenset[str]]:
    """Read a top-performer JSON file as a map from year to agent ids.

    A year listed more than once, under one key or under keys that ``int``
    reads as one year (``"2014"``, ``" 2014"``), has its id lists unioned,
    and only an empty union is an error. Objects decode to their (key, value)
    pairs, repeated keys kept, and one loop checks the pairs in file order.
    """
    path = Path(path)
    try:
        data = json.loads(read_text(path, IngestionError), object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, tuple):
        raise IngestionError(f"{path}: expected an object mapping year to id list")

    top: dict[int, frozenset[str]] = {}
    for key, ids in data:
        try:
            year = int(key)
        except ValueError:
            raise IngestionError(f"{path}: bad year key {key!r}") from None
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise IngestionError(f"{path}: year {key}: expected a list of ids")
        top[year] = top.get(year, frozenset()).union(ids)
    for year, ids in top.items():
        if not ids:
            raise IngestionError(f"{path}: empty top-performer list for year {year}")
    return top


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
