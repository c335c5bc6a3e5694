"""Reference renderer for bins.csv and correlations.csv.

A verbatim copy of the per-case loop and of the ``pearson`` and
``quantile_bin_summary`` kernels as they stood before the pipeline reduced
each column once (only the ``analysis.`` prefixes are dropped here);
``tests/test_kernels.py`` requires the pipeline's text to equal this
renderer's bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import itemgetter

from antifrag.errors import ComputeError
from antifrag.performance import PERF_VARIABLES

logger = logging.getLogger(__name__)


def fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _text(lines: list[str]) -> str:
    lines.append("")
    return "\n".join(lines)


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


def render_bins_and_correlations(cases, perf_variables) -> tuple[str, str]:
    """bins.csv and correlations.csv, from one join per case and performance
    variable: its Pearson r, and both binning directions when at least five
    agents have the variable defined."""
    bins = ["window,measure,scale,bin_by,stat_of,bin_index,count,min,mean,max"]
    correlations = ["window,measure,scale,perf_variable,r,n_pairs"]
    skipped_cases = 0
    skipped_names: set[str] = set()
    for window, measure, scale, ids, a_values, _, _ in cases:
        case = f"{window},{measure},{scale},"
        agents = [
            (aid, a, perf_variables[(window, aid)])
            for aid, a in zip(ids, a_values)
            if (window, aid) in perf_variables
        ]
        skipped = []
        for name in PERF_VARIABLES:
            entries = [(aid, a, v[name]) for aid, a, v in agents if v[name] is not None]
            r = pearson([e[1] for e in entries], [e[2] for e in entries])
            correlations.append(f"{case}{name},{fmt(r)},{len(entries)}")
            if len(entries) < 5:
                skipped.append(name)
                continue
            flipped = [(aid, var, a) for aid, a, var in entries]
            for bin_by, stat_of, triples in (("A", name, entries), (name, "A", flipped)):
                bins.extend(
                    f"{case}{s.bin_by},{s.stat_of},{s.bin_index},{s.count},"
                    f"{fmt(s.min)},{fmt(s.mean)},{fmt(s.max)}"
                    for s in quantile_bin_summary(triples, bin_by, stat_of)
                )
        skipped_cases += bool(skipped)
        skipped_names.update(skipped)
    if skipped_cases:
        logger.warning(
            "bins skipped in %d of %d cases (fewer than 5 agents defined): %s",
            skipped_cases, len(cases),
            ", ".join(n for n in PERF_VARIABLES if n in skipped_names),
        )
    return _text(bins), _text(correlations)

