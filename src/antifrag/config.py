"""Run configuration: a flat key = value text file.

The keys, window specs and rules are README § Configuration; ``RunConfig``
has one slot per key.

The names a config refers to (market kinds, measures and their indexes, time
scales, safe names, dates, windows) are defined here. ``antifrag validate``
runs on this module alone, so it imports no numpy and generates no class code:
``AnalysisWindow`` is a named tuple and ``RunConfig`` a ``__slots__`` class,
where ``dataclasses`` would import ``inspect`` and ``exec`` their methods.
"""

from __future__ import annotations

import datetime as dt
import re
from collections import namedtuple
from enum import IntEnum
from pathlib import Path

from .errors import AntifragError, IngestionError

STOCK = "stock"
CRYPTO = "crypto"
MARKET_KINDS = (STOCK, CRYPTO)

MEASURES_BY_KIND = {
    STOCK: ("af3m", "afp", "afv", "afx"),
    CRYPTO: ("afm", "afn", "afp", "afv"),
}

# the reference indexes (by index id) each measure reads; the others read none
INDEXES_BY_MEASURE = {"afx": ("VIX",), "af3m": ("NASDAQ", "DJI", "SPX")}
# a run writes n_hist_bins distributions.csv rows per case and population
MAX_HIST_BINS = 10_000


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


# collections.namedtuple, not typing.NamedTuple: validate needs no typing
class AnalysisWindow(namedtuple("_Window", ("start", "end", "label"))):
    """A closed date interval the pipeline analyzes as one unit."""

    __slots__ = ()

    def __new__(cls, start: dt.date, end: dt.date, label: str):
        if start > end:
            raise IngestionError(f"window {label}: start {start} after end {end}")
        return super().__new__(cls, start, end, label)

    def span(self, days) -> slice:
        """The part of a sorted numpy array of day ordinals that falls inside
        the window."""
        lo, hi = days.searchsorted((self.start.toordinal(), self.end.toordinal() + 1))
        return slice(int(lo), int(hi))

    @classmethod
    def calendar_year(cls, year: int) -> "AnalysisWindow":
        return cls(dt.date(year, 1, 1), dt.date(year, 12, 31), str(year))


class RunConfig:
    """A checked configuration: ``build_config`` makes one from the keys a
    run uses, command-line overrides included, and nothing changes it after."""

    __slots__ = ("market_kind", "data_dir", "output_dir", "windows", "scales", "measures",
                 "index_dir", "top_performers_path", "n_hist_bins", "worker_count")

    def __init__(self, market_kind: str, data_dir: Path, output_dir: Path,
                 windows: tuple[AnalysisWindow, ...], scales: tuple[TimeScale, ...],
                 measures: tuple[str, ...], index_dir: Path | None = None,
                 top_performers_path: Path | None = None, n_hist_bins: int = 50,
                 worker_count: int = 0):
        self.market_kind = market_kind
        self.data_dir = data_dir
        self.output_dir = output_dir
        self.windows = windows
        self.scales = scales
        self.measures = measures
        self.index_dir = index_dir
        self.top_performers_path = top_performers_path
        self.n_hist_bins = n_hist_bins
        self.worker_count = worker_count


# the keys a config file may set: one per RunConfig field
_KEYS = frozenset(RunConfig.__slots__)


def read_text(path: Path, digests: dict | None = None) -> str:
    """A file's UTF-8 text past any byte-order mark; a byte that does not decode
    is an error naming the file and the line (ended by \\n, \\r\\n or \\r) it is on.
    With ``digests``, the SHA-256 of the bytes read goes in ``digests[path]``,
    so that a run reads each input once."""
    data = Path(path).read_bytes()
    if digests is not None:
        import hashlib  # loaded by pipeline, which only run imports: validate stays light

        digests[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; a byte-order mark holds no line end
        line = len(split_lines(exc.object[: exc.start].decode("utf-8")))
        raise IngestionError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def split_lines(text: str) -> list[str]:
    """The lines of a text, each ended by \\n, \\r\\n or \\r and by no other
    character (``str.splitlines`` also ends one at \\x0c, \\x85, \\u2028 and
    more); what follows the last line end is the last item, empty when the text
    ends with a line end."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_config_file(path: Path) -> dict[str, str]:
    """Parse the raw key = value lines; no semantic checks yet."""
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as exc:
        raise IngestionError(f"cannot read config {path}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise IngestionError(f"{path}: line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise IngestionError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in raw:
            raise IngestionError(f"{path}: line {lineno}: duplicate key {key!r}")
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
    if not (token.isdecimal() and dt.MINYEAR <= int(token) <= dt.MAXYEAR):
        raise ValueError(f"bad window spec {token!r} (want a year or label:start:end)")
    return AnalysisWindow.calendar_year(int(token))


def build_config(raw: dict[str, str], base_dir: Path):
    """Turn raw key-value pairs into a RunConfig, collecting every problem.

    Returns (config_or_None, errors, notes). The config is None whenever
    errors is non-empty; notes are informational only.
    """
    errors: list[str] = []
    notes: list[str] = []

    def resolve(key) -> Path | None:  # an absolute value replaces base_dir
        value = raw.get(key)
        return base_dir / value if value else None

    def integer(key, default) -> int:  # the default also when the value is bad
        try:
            return int(raw.get(key) or default)
        except ValueError:
            errors.append(f"{key}: bad value {raw[key]!r}")
        return default

    def unique(key, items) -> list:  # each item once, sorted; a repeat is an error
        if len(set(items)) != len(items):
            errors.append(f"{key}: duplicates")
        return sorted(set(items))

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
            except (ValueError, AntifragError) as exc:
                errors.append(f"windows: {exc}")
    labels = [w.label for w in windows]
    if len(set(labels)) != len(labels):
        errors.append("windows: duplicate labels")
    for i, a in enumerate(windows):
        for b in windows[i + 1 :]:
            if a.start <= b.end and b.start <= a.end:
                notes.append(f"windows {a.label} and {b.label} overlap")

    scales: list[TimeScale] = []
    text = raw.get("scales", "0,1,2")
    if not text:
        errors.append("scales must not be empty")
    for token in text.split(",") if text else ():
        token = token.strip()
        try:
            scales.append(TimeScale(int(token)))
        except ValueError:
            errors.append(f"scales: bad value {token!r} (valid: 0, 1, 2)")
    scales = unique("scales", scales)

    valid_measures = MEASURES_BY_KIND.get(market_kind, ())
    if "measures" in raw:
        measures = tuple(m.strip() for m in raw["measures"].split(",") if m.strip())
        if not measures:
            errors.append("measures must not be empty")
        for m in measures:
            if valid_measures and m not in valid_measures:
                errors.append(f"measure {m} invalid for {market_kind}")
    else:
        measures = valid_measures
    measures = tuple(unique("measures", measures))

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

    n_hist_bins = integer("n_hist_bins", 50)
    if n_hist_bins < 1:
        errors.append("n_hist_bins must be at least 1")
    elif n_hist_bins > MAX_HIST_BINS:
        errors.append(f"n_hist_bins must be at most {MAX_HIST_BINS}")

    worker_count = integer("worker_count", 0)
    if worker_count < 0:
        errors.append("worker_count must be >= 0")
    if raw.get("worker_count"):
        notes.append("worker_count has no effect: cases run in one process")

    if output_dir is not None and data_dir is not None:
        if (error := _write_overlap(output_dir, data_dir, index_dir, top_path)) is not None:
            errors.append(error)

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


def _write_overlap(output_dir: Path, data_dir: Path, index_dir: Path | None,
                   top_path: Path | None) -> str | None:
    """Why a run would write where it reads, or None. A run reads every CSV
    in data_dir, so reports written there break the next run; it replaces
    its reports in output_dir; and it writes ``--dump-panels`` files into
    output_dir/panels, removing the CSVs there that it did not write."""
    if _same_dir(output_dir, data_dir):
        return f"output_dir {output_dir} is data_dir: its reports would be read as agents"
    panels = output_dir / "panels"
    for key, path in (("data_dir", data_dir), ("index_dir", index_dir)):
        if path is not None and _same_dir(panels, path):
            return f"{key} {path} is output_dir's panels directory, whose CSV files a run removes"
    for where, name in ((output_dir, "output_dir"), (panels, "output_dir's panels directory")):
        if top_path is not None and _same_dir(where, top_path.resolve().parent):
            return f"top_performers_path {top_path} is in {name}, where a run writes reports"
    return None


def _same_dir(a: Path, b: Path) -> bool:
    """Whether both exist and are one directory, by whatever paths. A missing
    one is never an input directory: those are checked to exist."""
    try:
        return a.samefile(b)
    except OSError:
        return False


def load_config(path: Path, out: Path | None = None, workers: int | None = None):
    """read_config_file + build_config against the file's directory. ``out``
    and ``workers``, given, replace the output_dir and worker_count keys
    before ``build_config`` checks them; ``out`` is relative to the working
    directory, so it goes in as an absolute path."""
    path = Path(path)
    raw = read_config_file(path)
    if out is not None:
        raw["output_dir"] = str(Path(out).absolute())
    if workers is not None:
        raw["worker_count"] = str(workers)
    return build_config(raw, path.parent.resolve())
