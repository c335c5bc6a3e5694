"""Downstream analyses over the antifragility and performance values.

Everything here works on plain mappings and sequences so it can be exercised
without building a full pipeline run. A "case" is one (window label, measure,
scale code) triple.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ComputeError

logger = logging.getLogger(__name__)

CaseKey = tuple[str, str, int]  # (window label, measure, scale code)


def pearson(xs, ys) -> float | None:
    """Pearson correlation; None when a side is constant or pairs are scarce.

    Pairs with an undefined (None or non-finite) member are dropped first.
    """
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys)
             if x is not None and y is not None]
    pairs = [(x, y) for x, y in pairs if math.isfinite(x) and math.isfinite(y)]
    if len(pairs) < 2:
        return None
    n = len(pairs)
    mx = math.fsum(p[0] for p in pairs) / n
    my = math.fsum(p[1] for p in pairs) / n
    sxx = math.fsum((p[0] - mx) ** 2 for p in pairs)
    syy = math.fsum((p[1] - my) ** 2 for p in pairs)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum((p[0] - mx) * (p[1] - my) for p in pairs)
    return sxy / math.sqrt(sxx * syy)


@dataclass(frozen=True)
class BinSummary:
    bin_index: int
    bin_by: str
    stat_of: str
    count: int
    min: float
    mean: float
    max: float


def quantile_bin_summary(
    entries, bin_by: str, stat_of: str, n_bins: int = 5
) -> list[BinSummary]:
    """Split agents into equal-count bins and summarize a second variable.

    ``entries`` are (agent_id, bin_by_value, stat_value) triples. Agents are
    sorted by bin value (agent id breaks ties) and split into ``n_bins``
    contiguous groups whose sizes differ by at most one, any remainder going
    to the lowest bins. Each summary reports count, min, mean, and max of the
    stat values inside the bin.
    """
    rows = sorted(entries, key=itemgetter(1, 0))
    if len(rows) < n_bins:
        raise ComputeError(
            f"need at least {n_bins} agents to bin, got {len(rows)}"
        )
    base, remainder = divmod(len(rows), n_bins)
    summaries = []
    cursor = 0
    for index in range(n_bins):
        size = base + (1 if index < remainder else 0)
        chunk = [row[2] for row in rows[cursor : cursor + size]]
        cursor += size
        summaries.append(
            BinSummary(
                bin_index=index,
                bin_by=bin_by,
                stat_of=stat_of,
                count=size,
                min=min(chunk),
                mean=math.fsum(chunk) / size,
                max=max(chunk),
            )
        )
    return summaries


@dataclass(frozen=True)
class Distribution:
    """A histogram normalized so the densities integrate to one."""

    variable: str
    edges: np.ndarray
    densities: np.ndarray
    sample_count: int


def distribution(
    values, n_bins: int = 50, variable: str = "A", edges=None
) -> Distribution:
    """Equal-width histogram over [min, max], normalized to unit integral.

    Passing ``edges`` reuses another distribution's binning (for comparing a
    subpopulation against the whole on identical supports). A single-point
    value range is widened by 1e-9 on each side.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ComputeError(f"distribution of {variable}: no values")
    if edges is None:
        lo = float(arr.min())
        hi = float(arr.max())
        if lo == hi:
            lo -= 1e-9
            hi += 1e-9
        edges = np.linspace(lo, hi, n_bins + 1)
    else:
        edges = np.asarray(edges, dtype=float)
    counts, _ = np.histogram(arr, bins=edges)
    in_range = int(counts.sum())
    widths = np.diff(edges)
    densities = counts / (in_range * widths)
    return Distribution(variable, edges, densities, int(arr.size))


@dataclass(frozen=True)
class ComparisonStats:
    """How often top performers beat the population mean antifragility."""

    cases_total: int
    cases_top_greater: int
    fraction_top_greater: float
    sum_diff_when_greater: float
    sum_diff_otherwise: float
    ratio: float | None


def top_comparison(
    case_values: dict[CaseKey, dict[str, float]],
    top_ids_by_window: dict[str, frozenset[str]],
) -> ComparisonStats:
    """Compare mean antifragility of top performers against everyone.

    ``case_values`` maps each case to its per-agent global antifragility.
    Cases where no top performer is alive are skipped (logged). The ratio is
    None when the non-greater cases contribute zero absolute difference.
    """
    total = 0
    greater = 0
    diff_greater = []
    diff_otherwise = []
    for key in sorted(case_values):
        window, measure, scale = key
        values = case_values[key]
        if not values:
            continue
        top = [values[a] for a in sorted(values) if a in top_ids_by_window.get(window, ())]
        if not top:
            logger.warning(
                "comparison case skipped (no top performer alive): %s/%s/%d",
                window, measure, scale,
            )
            continue
        everyone = [values[a] for a in sorted(values)]
        mean_all = math.fsum(everyone) / len(everyone)
        mean_top = math.fsum(top) / len(top)
        total += 1
        if mean_top > mean_all:
            greater += 1
            diff_greater.append(abs(mean_top - mean_all))
        else:
            diff_otherwise.append(abs(mean_top - mean_all))
    if total == 0:
        raise ComputeError("top comparison: no case has a top performer alive")
    sum_greater = math.fsum(diff_greater)
    sum_otherwise = math.fsum(diff_otherwise)
    return ComparisonStats(
        cases_total=total,
        cases_top_greater=greater,
        fraction_top_greater=greater / total,
        sum_diff_when_greater=sum_greater,
        sum_diff_otherwise=sum_otherwise,
        ratio=sum_greater / sum_otherwise if sum_otherwise != 0.0 else None,
    )

