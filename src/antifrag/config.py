"""Run configuration: a flat key = value text file.

Recognized keys (one per line, ``#`` starts a comment):

    market_kind          stock | crypto                              required
    data_dir             directory of per-agent CSV files            required
    output_dir           where reports are written                   required
    windows              comma-separated window specs                required
    index_dir            directory with vix/nasdaq/dji/spx.csv       stocks
    top_performers_path  JSON file of per-year top performers        optional
    scales               subset of 0,1,2            default: 0,1,2
    measures             measure ids for the kind   default: all valid
    n_hist_bins          histogram bin count        default: 50
    worker_count         accepted, has no effect    default: 0

A window spec is either a plain year (``2014`` covers the calendar year) or
``label:start:end`` with ISO dates (``2018:2018-01-01:2018-11-30``). A label
names report rows and ``--dump-panels`` files, so it may only contain
letters, digits, ``.``, ``_`` and ``-``.
Relative paths are resolved against the config file's directory.

The names a config refers to (market kinds, measures and their indexes, time
scales, safe names, dates, windows) are defined here, and this module imports
no numpy, so ``antifrag validate`` never pays for importing it.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from .errors import ConfigError, IngestionError

STOCK = "stock"
CRYPTO = "crypto"
MARKET_KINDS = (STOCK, CRYPTO)

MEASURES_BY_KIND = {
    STOCK: ("af3m", "afp", "afv", "afx"),
    CRYPTO: ("afm", "afn", "afp", "afv"),
}

# the reference indexes (by index id) each measure reads; the others read none
INDEXES_BY_MEASURE = {"afx": ("VIX",), "af3m": ("NASDAQ", "DJI", "SPX")}


class TimeScale(IntEnum):
    DAILY = 0
    WEEKLY = 1
    MONTHLY = 2


_SAFE_NAME = re.compile(r"[A-Za-z0-9._-]+")
SAFE_NAME_RULE = "may only contain letters, digits, '.', '_' and '-'"


def is_safe_name(name: str) -> bool:
    """Agent ids and window labels become report fields and file-name parts,
    so only ``[A-Za-z0-9._-]+`` is accepted: no separator, quote or slash."""
    return _SAFE_NAME.fullmatch(name) is not None


def parse_date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` date on every supported Python (3.11's
    ``date.fromisoformat`` also takes ``20140102`` and ``2014-W01-5``)."""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return dt.date.fromisoformat(text)


@dataclass(frozen=True)
class AnalysisWindow:
    """A closed date interval the pipeline analyzes as one unit."""

    start: dt.date
    end: dt.date
    label: str

    def __post_init__(self):
        if self.start > self.end:
            raise IngestionError(
                f"window {self.label}: start {self.start} after end {self.end}"
            )

    def span(self, days) -> slice:
        """The part of a sorted numpy array of day ordinals that falls inside
        the window."""
        lo, hi = days.searchsorted((self.start.toordinal(), self.end.toordinal() + 1))
        return slice(int(lo), int(hi))

    @classmethod
    def calendar_year(cls, year: int) -> "AnalysisWindow":
        return cls(dt.date(year, 1, 1), dt.date(year, 12, 31), str(year))


_KEYS = (
    "market_kind",
    "data_dir",
    "index_dir",
    "top_performers_path",
    "windows",
    "scales",
    "measures",
    "output_dir",
    "n_hist_bins",
    "worker_count",
)


@dataclass
class RunConfig:
    market_kind: str
    data_dir: Path
    output_dir: Path
    windows: tuple[AnalysisWindow, ...]
    scales: tuple[TimeScale, ...]
    measures: tuple[str, ...]
    index_dir: Path | None = None
    top_performers_path: Path | None = None
    n_hist_bins: int = 50
    worker_count: int = 0


def read_config_file(path: Path) -> dict[str, str]:
    """Parse the raw key = value lines; no semantic checks yet."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _parse_window(token: str) -> AnalysisWindow:
    token = token.strip()
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad window spec {token!r} (want label:start:end)")
        label, start, end = (p.strip() for p in parts)
        if not is_safe_name(label):
            raise ValueError(f"window label {label!r} {SAFE_NAME_RULE}")
        return AnalysisWindow(parse_date(start), parse_date(end), label)
    return AnalysisWindow.calendar_year(int(token))


def build_config(raw: dict[str, str], base_dir: Path):
    """Turn raw key-value pairs into a RunConfig, collecting every problem.

    Returns (config_or_None, errors, notes). The config is None whenever
    errors is non-empty; notes are informational only.
    """
    errors: list[str] = []
    notes: list[str] = []

    def resolve(key) -> Path | None:
        value = raw.get(key)
        if value is None or value == "":
            return None
        p = Path(value)
        return p if p.is_absolute() else (base_dir / p)

    market_kind = raw.get("market_kind", "")
    if market_kind not in MARKET_KINDS:
        errors.append(
            f"market_kind must be one of {'/'.join(MARKET_KINDS)}, got {market_kind!r}"
        )

    data_dir = resolve("data_dir")
    if data_dir is None:
        errors.append("data_dir is required")
    elif not data_dir.is_dir():
        errors.append(f"data_dir {data_dir} is not a directory")

    output_dir = resolve("output_dir")
    if output_dir is None:
        errors.append("output_dir is required")

    windows: list[AnalysisWindow] = []
    if not raw.get("windows"):
        errors.append("windows is required")
    else:
        for token in raw["windows"].split(","):
            try:
                windows.append(_parse_window(token))
            except Exception as exc:
                errors.append(f"windows: {exc}")
    labels = [w.label for w in windows]
    if len(set(labels)) != len(labels):
        errors.append("windows: duplicate labels")
    for i, a in enumerate(windows):
        for b in windows[i + 1 :]:
            if a.start <= b.end and b.start <= a.end:
                notes.append(f"windows {a.label} and {b.label} overlap")

    scales: list[TimeScale] = []
    for token in raw.get("scales", "0,1,2").split(","):
        token = token.strip()
        try:
            scales.append(TimeScale(int(token)))
        except ValueError:
            errors.append(f"scales: bad value {token!r} (valid: 0, 1, 2)")
    if len(set(scales)) != len(scales):
        errors.append("scales: duplicates")
    scales = sorted(set(scales))
    if not scales:
        errors.append("scales must not be empty")

    valid_measures = MEASURES_BY_KIND.get(market_kind, ())
    if raw.get("measures"):
        measures = tuple(m.strip() for m in raw["measures"].split(",") if m.strip())
        if not measures:
            errors.append("measures must not be empty")
        for m in measures:
            if valid_measures and m not in valid_measures:
                errors.append(f"measure {m} invalid for {market_kind}")
    else:
        measures = valid_measures
    measures = tuple(sorted(set(measures)))

    index_dir = resolve("index_dir")
    needs_indexes = market_kind == STOCK and bool(INDEXES_BY_MEASURE.keys() & measures)
    if needs_indexes:
        if index_dir is None:
            errors.append("index_dir is required for stock measures afx/af3m")
        elif not index_dir.is_dir():
            errors.append(f"index_dir {index_dir} is not a directory")

    top_path = resolve("top_performers_path")
    if top_path is not None and not top_path.is_file():
        errors.append(f"top_performers_path {top_path} is not a file")

    n_hist_bins = 50
    if raw.get("n_hist_bins"):
        try:
            n_hist_bins = int(raw["n_hist_bins"])
        except ValueError:
            errors.append(f"n_hist_bins: bad value {raw['n_hist_bins']!r}")
        if n_hist_bins < 1:
            errors.append("n_hist_bins must be at least 1")

    worker_count = 0
    if raw.get("worker_count"):
        try:
            worker_count = int(raw["worker_count"])
        except ValueError:
            errors.append(f"worker_count: bad value {raw['worker_count']!r}")
        if worker_count < 0:
            errors.append("worker_count must be >= 0")
        notes.append("worker_count has no effect: cases run in one process")

    if errors:
        return None, errors, notes
    return (
        RunConfig(
            market_kind=market_kind,
            data_dir=data_dir,
            output_dir=output_dir,
            windows=tuple(windows),
            scales=tuple(scales),
            measures=measures,
            index_dir=index_dir,
            top_performers_path=top_path,
            n_hist_bins=n_hist_bins,
            worker_count=worker_count,
        ),
        errors,
        notes,
    )


def load_config(path: Path):
    """read_config_file + build_config against the file's directory."""
    path = Path(path)
    raw = read_config_file(path)
    return build_config(raw, path.parent.resolve())
