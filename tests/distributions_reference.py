"""Reference renderer for distributions.csv.

A verbatim copy of ``pipeline._render_distributions`` and of the
``analysis.distribution`` kernel as they stood before the renderer formatted
each case's edges once and each distinct density once per population (only
the ``analysis.`` prefixes are dropped here); ``tests/test_kernels.py``
requires the pipeline's text to equal this renderer's bit for bit.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from antifrag.errors import ComputeError


def _text(lines: list[str]) -> str:
    lines.append("")
    return "\n".join(lines)


class Distribution(NamedTuple):
    """A histogram normalized so the densities integrate to one."""

    edges: np.ndarray
    densities: np.ndarray
    sample_count: int


def distribution(values, n_bins: int = 50, edges=None) -> Distribution:
    """Equal-width histogram over [min, max], normalized to unit integral.

    Passing ``edges`` reuses another distribution's binning (for comparing a
    subpopulation against the whole on identical supports). A single-point
    value range is widened by 1e-9 on each side.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ComputeError("distribution: no values")
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
    return Distribution(edges, densities, int(arr.size))


def _render_distributions(cases, top_by_window, n_bins):
    """distributions.csv, one piece per case."""
    yield "window,measure,scale,population,bin_index,bin_left,bin_right,density,sample_count\n"
    for window, measure, scale, ids, a_values, _, _ in cases:
        lines = []
        dist = distribution(a_values, n_bins=n_bins)
        populations = [("all", dist)]
        top_values = [a for aid, a in zip(ids, a_values) if aid in top_by_window[window]]
        if top_values:
            populations.append(("top", distribution(top_values, edges=dist.edges)))
        for population, d in populations:
            prefix = f"{window},{measure},{scale},{population},"
            edges = list(map(format, d.edges.tolist(), repeat(".17g")))
            lines.extend(
                f"{prefix}{i},{edges[i]},{edges[i + 1]},{density:.17g},{d.sample_count}"
                for i, density in enumerate(d.densities.tolist())
            )
        yield _text(lines)

