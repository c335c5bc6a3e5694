"""Run the antifrag CLI in this process, with spans around every layer call.

    python3 perfbench/trace_run.py SPANS_JSON run --config CFG --out DIR --workers 1

The public functions ``antifrag.pipeline`` calls are wrapped where the
pipeline looks them up; nothing under ``src/`` is edited. Spans (layer,
start, end, parent span) and per-layer counters are kept in memory and
written to SPANS_JSON when the CLI returns. Run it serially: spans recorded
in pool workers would never reach this process.

A function that no longer exists is simply not wrapped; the benchmark then
reports its layer as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

SPANS: list[list] = []  # [layer, start, end, parent span index or None]
STACK: list[int] = []
COUNTERS: dict[str, dict[str, float]] = {}
COUNT_ERRORS: set[str] = set()  # layers whose results no longer have the counted shape


def _add(layer: str, name: str, value: float) -> None:
    per_layer = COUNTERS.setdefault(layer, {})
    per_layer[name] = per_layer.get(name, 0) + value


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _rows(result) -> int:
    for attr in ("observations", "values"):
        if hasattr(result, attr):
            return len(getattr(result, attr))
    return len(result)


# Counters per layer, computed from (args, result) after the call returns.
def _count_load(args, result):
    _add("ingestion.load", "rows", _rows(result))
    _add("ingestion.load", "mb_read", os.path.getsize(args[0]) / 1e6)
    COUNTERS["ingestion.load"]["maxrss_mb"] = _maxrss_mb()


def _count_slice(args, result):
    _add("ingestion.slice", "kept", result is not None)


def _count_panel(args, result):
    _add("resampling.build_panel", "agents_in", len(args[0]))
    _add("resampling.build_panel", "alive", len(result.agents))
    _add(
        "resampling.build_panel",
        "periods",
        sum(len(next(iter(ch.values()))) for ch in result.agents.values()),
    )


def _count_measures(args, result):
    results = sum(len(per_agent) for per_agent in result.results.values())
    _add("measures.compute_measures", "results", results)
    _add(
        "measures.compute_measures",
        "excluded",
        len(result.alive_agents) * len(args[1]) - results,
    )


def _count_scatter(args, result):
    _add("analysis", "scatter_rows", len(result))


def _count_execute(args, result):
    _add("pipeline.execute", "mb_rendered", sum(len(t) for t in result.values()) / 1e6)


def _count_run(args, result):
    _add("pipeline.write", "files", sum(1 for p in Path(result).rglob("*") if p.is_file()))


# (layer, module, attribute, counter): each attribute is patched in the module
# the pipeline reads it from, so the pipeline's own calls go through the span.
TARGETS = (
    ("ingestion.load", "antifrag.pipeline", "load_agent_series", _count_load),
    ("ingestion.load", "antifrag.pipeline", "load_index_series", _count_load),
    ("ingestion.load", "antifrag.pipeline", "load_top_performers", None),
    ("ingestion.slice", "antifrag.pipeline", "slice_window", _count_slice),
    ("resampling.build_panel", "antifrag.pipeline", "build_panel", _count_panel),
    ("measures.compute_measures", "antifrag.pipeline", "compute_measures", _count_measures),
    ("performance.compute_performance", "antifrag.pipeline", "compute_performance", None),
    ("analysis", "antifrag.analysis", "scatter_export", _count_scatter),
    ("analysis", "antifrag.analysis", "quantile_bin_summary", None),
    ("analysis", "antifrag.analysis", "pearson", None),
    ("analysis", "antifrag.analysis", "distribution", None),
    ("analysis", "antifrag.analysis", "top_comparison", None),
    ("pipeline.execute", "antifrag.pipeline", "execute", _count_execute),
    ("pipeline.write", "antifrag.pipeline", "run", _count_run),
)


def _span(layer: str, start: float, end: float) -> None:
    SPANS.append([layer, start, end, STACK[-1] if STACK else None])


def _wrap(layer: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = len(SPANS)
        _span(layer, time.perf_counter(), None)
        STACK.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            STACK.pop()
            SPANS[index][2] = time.perf_counter()
        _add(layer, "calls", 1)
        if count is not None:
            # a span of its own, so counting is not charged to the caller's self time
            start = time.perf_counter()
            try:
                count(args, result)
            except (AttributeError, TypeError, KeyError, StopIteration):
                COUNT_ERRORS.add(layer)
            _span("trace.count", start, time.perf_counter())
        return result

    return traced


def install() -> list[str]:
    """Wrap every target that exists; return the ``module.attr`` names that do not."""
    missing = []
    for layer, module_name, attr, count in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(layer, fn, count))
    return missing


def main() -> int:
    out = Path(sys.argv[1])
    from antifrag import cli

    missing = install()
    code = 1
    try:
        code = cli.main(sys.argv[2:])
    finally:
        out.write_text(
            json.dumps({"exit": code, "unwrapped": missing, "spans": SPANS,
                        "counters": COUNTERS, "count_errors": sorted(COUNT_ERRORS)})
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
