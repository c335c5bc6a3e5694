"""Reference performance metrics and renderers for performance.csv and scatter.csv.

A verbatim copy of ``compute_performance`` and ``_channel_metrics`` (one
dict per agent and window), of the ``perf_text`` build in
``pipeline.execute`` (one ``fmt`` per value), of ``_render_performance`` and
of the scatter half of ``_render_antifragility_and_scatter`` (with its
per-(window, agent) ``cells``), as they stood before each window's metrics
became one table. Only the imports and the ``perf_texts`` wrapper around
the ``perf_text`` build are added here; ``tests/test_performance.py``
requires the pipeline's text to equal these renderers' bit for bit.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from antifrag.analysis import deviations
from antifrag.ingestion import AgentSeries, AnalysisWindow
from antifrag.performance import PERF_VARIABLES


def fmt(value) -> str:
    """Canonical field serialization: 17 significant digits for reals, an
    empty field for None."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _text(lines: list[str]) -> str:
    lines.append("")
    return "\n".join(lines)


def _channel_metrics(values: list[float]):
    """(spread/mean, (final-initial)/mean, mean) for one raw channel."""
    if not values:
        return None, None, None
    mean = math.fsum(values) / len(values)
    if mean == 0.0:
        return None, None, mean
    spread = (max(values) - min(values)) / mean
    change = (values[-1] - values[0]) / mean
    return spread, change, mean


def compute_performance(
    series: AgentSeries, full_history_start: dt.date, window: AnalysisWindow
) -> dict[str, float | None]:
    """All metrics for one agent over one window, keyed by variable id in
    ``PERF_VARIABLES`` order, with ``age_days`` as a float.

    ``series`` must already be sliced to the window and hold at least two
    observations.
    """
    prices = series.open.tolist()
    volumes = series.volume.tolist()
    caps = series.cap[~np.isnan(series.cap)].tolist()

    pct_dlt_pr, pct_pr_f_i, pr_mea = _channel_metrics(prices)
    pct_dlt_vl, pct_vl_f_i, vl_mea = _channel_metrics(volumes)
    pct_dlt_mk, pct_mk_f_i, mk_mea = _channel_metrics(caps)

    pr_std = float(np.sqrt(deviations(prices)[1] / len(prices)))

    return {
        "age_days": float((window.end - full_history_start).days),
        "pct_dlt_pr": pct_dlt_pr,
        "pct_dlt_mk": pct_dlt_mk,
        "pct_dlt_vl": pct_dlt_vl,
        "pct_pr_f_i": pct_pr_f_i,
        "pct_mk_f_i": pct_mk_f_i,
        "pct_vl_f_i": pct_vl_f_i,
        "pr_mea": pr_mea,
        "pr_std": pr_std,
        "mk_mea": mk_mea,
        "vl_mea": vl_mea,
    }


def perf_texts(windows, sliced_by_window, full_start):
    """``perf_variables`` and ``perf_text`` as ``pipeline.execute`` built them."""
    # performance per window, only for agents alive in that window
    perf_variables: dict[tuple[str, str], dict[str, float | None]] = {
        (w.label, s.agent_id): compute_performance(s, full_start[s.agent_id], w)
        for w in windows
        for s in sliced_by_window[w.label]
    }
    perf_text = {
        key: {name: None if v is None else fmt(v) for name, v in variables.items()}
        for key, variables in perf_variables.items()
    }
    return perf_variables, perf_text


def render_scatter(cases, perf_text) -> str:
    """scatter.csv, which sets every agent's A next to each of its defined
    performance variables (sorted by name); an agent without performance in
    the window has no scatter rows."""
    cells = {
        key: [f"{name},{t}" for name, t in sorted(texts.items()) if t is not None]
        for key, texts in perf_text.items()
    }
    scatter = ["window,measure,scale,agent_id,A,perf_variable,perf_value"]
    for window, measure, scale, ids, _, a_text, used in cases:
        for aid, a, n in zip(ids, a_text, used):
            agent_cells = cells.get((window, aid))
            if agent_cells:
                prefix = f"{window},{measure},{scale},{aid},{a},"
                scatter.extend(map(prefix.__add__, agent_cells))
    return _text(scatter)


def render_performance(perf_text, top_by_window) -> str:
    lines = [",".join(["agent_id", "window", *PERF_VARIABLES, "is_top_performer"])]
    for (window, aid), texts in sorted(perf_text.items()):
        values = ",".join(texts[name] or "" for name in PERF_VARIABLES)
        top = "true" if aid in top_by_window[window] else "false"
        lines.append(f"{aid},{window},{values},{top}")
    return _text(lines)
