"""Downstream analyses over the antifragility and performance values.

Everything here works on plain mappings and sequences so it can be exercised
without building a full pipeline run. A "case" is one (window label, measure,
scale code) triple.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate, repeat
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from .errors import ComputeError

logger = logging.getLogger(__name__)

QUANTILE_BINS = 5  # the equal-count bins of bins.csv, and the fewest values binned


def deviations(values: list[float]) -> tuple[list[float], float]:
    """Deviations from the ``fsum`` mean and the sum of their squares, each
    ``pow(d, 2)``: libm's ``pow`` differs from ``d * d`` and ``np.square`` in
    the last bit for some doubles. Every sum of squares in the reports is this."""
    mean = math.fsum(values) / len(values)
    dev = [v - mean for v in values]
    return dev, math.fsum(map(pow, dev, repeat(2)))


def correlation(x: tuple[list[float], float], y: tuple[list[float], float]) -> float | None:
    """Pearson's r of two aligned columns, each as ``deviations`` returns it;
    None when a side is constant. Where the product of the sums of squares
    underflows to 0 or overflows to inf, their roots multiply. r is clamped
    to [-1, 1], which rounding can pass by an ulp (two points, or
    proportional columns)."""
    (x_dev, x_ss), (y_dev, y_ss) = x, y
    if x_ss == 0.0 or y_ss == 0.0:
        return None
    product = x_ss * y_ss
    scale = math.sqrt(product) if 0.0 < product < math.inf else math.sqrt(x_ss) * math.sqrt(y_ss)
    return max(min(math.fsum(map(mul, x_dev, y_dev)) / scale, 1.0), -1.0)


def bin_bounds(n: int) -> list[tuple[int, int]]:
    """(start, end) of ``QUANTILE_BINS`` contiguous groups of ``n`` ranked
    values, sizes within one of each other, the lowest taking any remainder."""
    base, remainder = divmod(n, QUANTILE_BINS)
    ends = list(accumulate(base + (index < remainder) for index in range(QUANTILE_BINS)))
    return list(zip([0, *ends], ends))


def bin_stats(order, stats, bounds) -> list[tuple[int, int, float, int]]:
    """(count, min position, mean, max position) of ``stats`` taken in
    ``order``, one per (start, end) of ``bounds``; a position indexes
    ``stats``. Each bin is one slice, reduced by ``min``, ``math.fsum`` and
    ``max``; ``min``/``max`` keep the first of equal values, so of -0.0 and
    0.0 a bin reports the one ranked first, and its position is that of the
    first element equal to the result. The mean is clamped to [min, max],
    which the division can pass by an ulp (``fsum([0.1] * 3) / 3``)."""
    ranked = [stats[i] for i in order]
    out = []
    for start, end in bounds:
        chunk = ranked[start:end]
        lo, hi = min(chunk), max(chunk)
        out.append((end - start, order[start + chunk.index(lo)],
                    min(max(math.fsum(chunk) / (end - start), lo), hi),
                    order[start + chunk.index(hi)]))
    return out


def pearson(xs, ys) -> float | None:
    """Pearson correlation, None when a side is constant or pairs are scarce;
    pairs with an undefined (None or non-finite) member are dropped first."""
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys)
             if x is not None and y is not None]
    pairs = [(x, y) for x, y in pairs if math.isfinite(x) and math.isfinite(y)]
    if len(pairs) < 2:
        return None
    return correlation(*(deviations(list(side)) for side in zip(*pairs)))


class BinSummary(NamedTuple):
    bin_index: int
    bin_by: str
    stat_of: str
    count: int
    min: float
    mean: float
    max: float


def quantile_bin_summary(entries, bin_by: str, stat_of: str) -> list[BinSummary]:
    """Split agents into equal-count bins and summarize a second variable.

    ``entries`` are (agent_id, bin_by_value, stat_value) triples, sorted by
    bin value (agent id breaks ties), split into ``QUANTILE_BINS`` bins and
    summarized by ``bin_stats``."""
    rows = sorted(entries, key=itemgetter(0))
    if len(rows) < QUANTILE_BINS:
        raise ComputeError(f"need at least {QUANTILE_BINS} agents to bin, got {len(rows)}")
    order = np.argsort([row[1] for row in rows], kind="stable").tolist()
    stats = [row[2] for row in rows]
    return [BinSummary(index, bin_by, stat_of, size, stats[lo], mean, stats[hi])
            for index, (size, lo, mean, hi)
            in enumerate(bin_stats(order, stats, bin_bounds(len(rows))))]


class Distribution(NamedTuple):
    """A histogram normalized so the densities integrate to one."""

    edges: np.ndarray
    densities: np.ndarray
    sample_count: int


def distribution(values, n_bins: int = 50, edges=None) -> Distribution:
    """Equal-width histogram over [min, max], normalized to unit integral.

    Passing ``edges`` reuses another distribution's binning (for comparing a
    subpopulation against the whole on identical supports). A value range
    where a bin width would be below the smallest normal double (a single
    point, values a few ulps apart, where edges repeat, or a subnormal range,
    where a density would overflow) is widened on each side by
    max(1e-9, n_bins * 2**-48 * max(|min|, |max|)), so that a bin is at
    least about 32 ulps of its edges wide. The pipeline's values are A
    values in [-1, 1], widened by 1e-9; larger ones come only from direct
    calls.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ComputeError("distribution: no values")
    if edges is None:
        lo = float(arr.min())
        hi = float(arr.max())
        edges = np.linspace(lo, hi, n_bins + 1)
        if not (np.diff(edges) >= np.finfo(float).tiny).all():
            pad = max(1e-9, max(abs(lo), abs(hi)) * n_bins * 2.0**-48)
            edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
    else:
        edges = np.asarray(edges, dtype=float)
    counts, _ = np.histogram(arr, bins=edges)
    in_range = int(counts.sum())
    widths = np.diff(edges)
    densities = counts / (in_range * widths)
    return Distribution(edges, densities, int(arr.size))


class ComparisonStats(NamedTuple):
    """How often top performers beat the population mean antifragility."""

    cases_total: int
    cases_top_greater: int
    fraction_top_greater: float
    sum_diff_when_greater: float
    sum_diff_otherwise: float
    ratio: float | None


def top_comparison(
    case_values: dict[tuple[str, str, int], dict[str, float]],
    top_ids_by_window: dict[str, frozenset[str]],
) -> ComparisonStats:
    """Compare mean antifragility of top performers against everyone.

    ``case_values`` maps each case to its per-agent global antifragility.
    Cases where no top performer is alive are skipped and named in one
    warning. The ratio is None when the non-greater cases contribute zero
    absolute difference. Every mean and sum is a ``math.fsum``, so no result
    depends on the order of cases or agents.
    """
    diff_greater = []
    diff_otherwise = []
    skipped = []
    for (window, measure, scale), values in case_values.items():
        top = [a for aid, a in values.items() if aid in top_ids_by_window.get(window, ())]
        if not top:
            skipped.append(f"{window}/{measure}/{scale}")
            continue
        mean_all = math.fsum(values.values()) / len(values)
        mean_top = math.fsum(top) / len(top)
        if mean_top > mean_all:
            diff_greater.append(abs(mean_top - mean_all))
        else:
            diff_otherwise.append(abs(mean_top - mean_all))
    if skipped:
        logger.warning("comparison skipped in %d of %d cases (no top performer alive): %s",
                       len(skipped), len(case_values), ", ".join(skipped))
    greater, total = len(diff_greater), len(diff_greater) + len(diff_otherwise)
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

