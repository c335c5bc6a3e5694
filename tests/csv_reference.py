"""Reference CSV loaders built on ``csv.reader``.

A verbatim copy of ``_read_rows``, ``_parse_columns``, ``_raise_first_bad_row``
and both loaders as they stood before ingestion split each file as one text
(only the imports of the helpers they share with ``antifrag.ingestion`` are
added here); ``tests/test_ingestion.py`` requires the loaders to return the
same columns as these, or to raise the same ``IngestionError``, on every
generated file without a ``"`` or a cell over ``csv.field_size_limit()``.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path
from typing import NoReturn

import numpy as np

from antifrag.config import SAFE_NAME_RULE, STOCK, is_safe_name
from antifrag.errors import IngestionError
from antifrag.ingestion import (
    INDEX_IDS,
    AgentSeries,
    IndexSeries,
    _column_fault,
    _parse_date,
    _parse_real,
)


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
    A blank cell in the last column becomes NaN when ``blank_last``, and a NaN
    there that is not blank (a ``nan`` cell) fails the blank count. Returns
    None when a row has the wrong field count, a cell does not parse, or the
    blank count fails; the values themselves are checked by ``_column_fault``.
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
    if blank_last and np.count_nonzero(np.isnan(columns[-1])) != blanks:
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
    days, open_, volume = days[order], columns[0][order], columns[1][order]
    cap = columns[2][order] if has_cap else np.full(len(days), np.nan)
    if _column_fault(days, (open_, volume), cap):
        _raise_first_bad_row(path, header, body, in_order=False)
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
    if parsed is None or _column_fault(*parsed):
        _raise_first_bad_row(path, header, body, in_order=True)
    days, (levels,) = parsed
    return IndexSeries(index_id, days, levels)
