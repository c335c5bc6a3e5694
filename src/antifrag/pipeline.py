"""End-to-end run: load inputs, compute all cases, render the reports.

A run covers every configured (window, scale) pair in one serial loop. Each
case builds its panel once, keeps only what the reports read (every agent's
global antifragility and periods used, and the alive count) and drops the
rest. Every report row is sorted, which keeps output bytes identical for any
input-file ordering. Reals are serialized with 17 significant digits and
lines end with \\n.

Report files: antifragility.csv, performance.csv, scatter.csv, bins.csv,
distributions.csv, correlations.csv, comparison.json (when top-performer
lists were supplied), and run_manifest.json.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig
from .errors import IngestionError
from .ingestion import (
    STOCK,
    AgentSeries,
    IndexSeries,
    load_agent_series,
    load_index_series,
    load_top_performers,
    slice_window,
)
from .measures import compute_measures
from .performance import PERF_VARIABLES, compute_performance, top_ids_for
from .resampling import INDEX, MARKET_CAP, PRICE, VOLUME, build_panel

logger = logging.getLogger(__name__)


def fmt(value) -> str:
    """Canonical field serialization: 17 significant digits for reals."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def execute(config: RunConfig, dump_panels: bool = False) -> dict[str, str]:
    """Produce every report as text, keyed by file name. Writes nothing."""
    agent_files = sorted(config.data_dir.glob("*.csv"))
    if not agent_files:
        raise IngestionError(f"no agent CSV files in {config.data_dir}")
    agents = sorted(
        (load_agent_series(p, config.market_kind) for p in agent_files),
        key=lambda s: s.agent_id,
    )

    index_files: dict[str, Path] = {}
    if config.market_kind == STOCK:
        needed = set()
        if "afx" in config.measures:
            needed.add("VIX")
        if "af3m" in config.measures:
            needed.update(("NASDAQ", "DJI", "SPX"))
        for iid in sorted(needed):
            path = config.index_dir / f"{iid.lower()}.csv"
            if not path.is_file():
                raise IngestionError(f"missing index file {path}")
            index_files[iid] = path
    indexes: list[IndexSeries] = [
        load_index_series(path, iid) for iid, path in sorted(index_files.items())
    ]

    top_lists = None
    if config.top_performers_path is not None:
        top_lists = load_top_performers(config.top_performers_path)

    digests = {f"agents/{p.name}": _digest(p) for p in agent_files}
    digests.update({f"indexes/{p.name}": _digest(p) for p in index_files.values()})
    if config.top_performers_path is not None:
        digests[f"top/{config.top_performers_path.name}"] = _digest(
            config.top_performers_path
        )

    full_start = {a.agent_id: a.first_date for a in agents}
    top_by_window = {
        w.label: top_ids_for(w, top_lists) for w in config.windows
    }

    sliced_by_window: dict[str, list[AgentSeries]] = {}
    for window in config.windows:
        kept = []
        for series in agents:
            inside = slice_window(series, window)
            if inside is not None:
                kept.append(inside)
        sliced_by_window[window.label] = kept

    case_values: dict[analysis.CaseKey, dict[str, float]] = {}
    n_used: dict[analysis.CaseKey, dict[str, int]] = {}
    alive: dict[str, dict[str, int]] = {}
    panel_dumps: dict[str, str] = {}
    for window in config.windows:
        for scale in config.scales:
            panel = build_panel(sliced_by_window[window.label], indexes, window, scale)
            ws = compute_measures(panel, config.measures)
            alive.setdefault(window.label, {})[str(int(scale))] = len(ws.alive_agents)
            for measure, per_agent in ws.results.items():
                key = (window.label, measure, int(scale))
                case_values[key] = {
                    aid: result.global_a for aid, result in sorted(per_agent.items())
                }
                n_used[key] = {aid: result.n_used for aid, result in per_agent.items()}
            if dump_panels:
                panel_dumps.update(_panel_dumps(panel))

    # performance records per window, only for agents alive in that window
    perf_records = []
    perf_variables: dict[tuple[str, str], dict[str, float | None]] = {}
    for window in config.windows:
        top_ids = top_by_window[window.label]
        for series in sliced_by_window[window.label]:
            record = compute_performance(
                series, full_start[series.agent_id], window, top_ids
            )
            perf_records.append(record)
            perf_variables[(window.label, series.agent_id)] = record.variables()

    outputs: dict[str, str] = {}
    outputs["antifragility.csv"] = _csv(
        ["agent_id", "measure", "scale", "window", "global_A", "n_used"],
        (
            (aid, measure, scale, window, values[aid],
             n_used[(window, measure, scale)][aid])
            for (window, measure, scale), values in sorted(case_values.items())
            for aid in sorted(values)
        ),
    )
    outputs["performance.csv"] = _render_performance(perf_records)
    outputs["scatter.csv"] = _csv(
        ["window", "measure", "scale", "agent_id", "A", "perf_variable", "perf_value"],
        analysis.scatter_export(case_values, perf_variables),
    )
    outputs["bins.csv"] = _render_bins(case_values, perf_variables)
    outputs["correlations.csv"] = _render_correlations(case_values, perf_variables)
    outputs["distributions.csv"] = _render_distributions(
        case_values, top_by_window, config.n_hist_bins
    )
    if top_lists is not None:
        stats = analysis.top_comparison(case_values, top_by_window)
        outputs["comparison.json"] = _comparison_json(stats)
    outputs["run_manifest.json"] = _manifest_json(config, digests, alive)
    outputs.update(panel_dumps)
    return outputs


def _render_performance(records) -> str:
    header = ["agent_id", "window"] + list(PERF_VARIABLES) + ["is_top_performer"]
    rows = []
    for r in sorted(records, key=lambda r: (r.window, r.agent_id)):
        row = [r.agent_id, r.window, r.age_days]
        row += [getattr(r, name) for name in PERF_VARIABLES[1:]]
        row.append(r.is_top_performer)
        rows.append(row)
    return _csv(header, rows)


def _defined(window, values, perf_variables, name) -> list[tuple[str, float, float]]:
    """(agent, A, variable) in agent order, for every agent of one case whose
    performance variable ``name`` is defined."""
    return [
        (aid, values[aid], perf_variables[(window, aid)][name])
        for aid in sorted(values)
        if (window, aid) in perf_variables
        and perf_variables[(window, aid)][name] is not None
    ]


def _render_bins(case_values, perf_variables) -> str:
    """Both binning directions for every case and performance variable."""
    header = ["window", "measure", "scale", "bin_by", "stat_of",
              "bin_index", "count", "min", "mean", "max"]
    rows = []
    skipped_cases = 0
    skipped_names: set[str] = set()
    for (window, measure, scale), values in sorted(case_values.items()):
        skipped = []
        for name in PERF_VARIABLES:
            entries = _defined(window, values, perf_variables, name)
            if len(entries) < 5:
                skipped.append(name)
                continue
            for bin_by, stat_of in (("A", name), (name, "A")):
                if bin_by == "A":
                    triples = entries
                else:
                    triples = [(aid, var, a) for aid, a, var in entries]
                for s in analysis.quantile_bin_summary(triples, bin_by, stat_of):
                    rows.append((window, measure, scale, s.bin_by, s.stat_of,
                                 s.bin_index, s.count, s.min, s.mean, s.max))
        skipped_cases += bool(skipped)
        skipped_names.update(skipped)
    if skipped_cases:
        logger.warning(
            "bins skipped in %d of %d cases (fewer than 5 agents defined): %s",
            skipped_cases, len(case_values),
            ", ".join(n for n in PERF_VARIABLES if n in skipped_names),
        )
    return _csv(header, rows)


def _render_correlations(case_values, perf_variables) -> str:
    header = ["window", "measure", "scale", "perf_variable", "r", "n_pairs"]
    rows = []
    for (window, measure, scale), values in sorted(case_values.items()):
        for name in PERF_VARIABLES:
            entries = _defined(window, values, perf_variables, name)
            r = analysis.pearson([e[1] for e in entries], [e[2] for e in entries])
            rows.append((window, measure, scale, name, r, len(entries)))
    return _csv(header, rows)


def _render_distributions(case_values, top_by_window, n_bins) -> str:
    header = ["window", "measure", "scale", "population", "bin_index",
              "bin_left", "bin_right", "density", "sample_count"]
    rows = []
    for (window, measure, scale), values in sorted(case_values.items()):
        ordered = [values[aid] for aid in sorted(values)]
        dist = analysis.distribution(ordered, n_bins=n_bins)
        populations = [("all", dist)]
        top_values = [
            values[aid] for aid in sorted(values) if aid in top_by_window[window]
        ]
        if top_values:
            populations.append(
                ("top", analysis.distribution(top_values, edges=dist.edges))
            )
        for population, d in populations:
            for i, density in enumerate(d.densities.tolist()):
                rows.append((window, measure, scale, population, i,
                             d.edges[i], d.edges[i + 1], density, d.sample_count))
    return _csv(header, rows)


def _comparison_json(stats) -> str:
    def real(x):
        return "null" if x is None else format(float(x), ".17g")

    return (
        "{\n"
        f'  "cases_total": {stats.cases_total},\n'
        f'  "cases_top_greater": {stats.cases_top_greater},\n'
        f'  "fraction_top_greater": {real(stats.fraction_top_greater)},\n'
        f'  "sum_diff_when_greater": {real(stats.sum_diff_when_greater)},\n'
        f'  "sum_diff_otherwise": {real(stats.sum_diff_otherwise)},\n'
        f'  "ratio": {real(stats.ratio)}\n'
        "}\n"
    )


def _manifest_json(config: RunConfig, digests, alive) -> str:
    """Everything needed to reproduce the run, minus scheduling knobs.

    worker_count and output_dir never influence results, so recording them
    would only break byte-identity between equivalent runs. ``alive`` maps
    window label and scale to the number of agents alive in that case.
    """
    manifest = {
        "market_kind": config.market_kind,
        "data_dir": str(config.data_dir),
        "index_dir": None if config.index_dir is None else str(config.index_dir),
        "top_performers_path": (
            None
            if config.top_performers_path is None
            else str(config.top_performers_path)
        ),
        "windows": [
            {"label": w.label, "start": w.start.isoformat(), "end": w.end.isoformat()}
            for w in config.windows
        ],
        "scales": [int(s) for s in config.scales],
        "measures": list(config.measures),
        "n_hist_bins": config.n_hist_bins,
        "input_digests": digests,
        "alive_agents": alive,
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _panel_dumps(panel) -> dict[str, str]:
    """Debug export of one panel: one CSV per channel (period x agent)."""
    out = {}
    prefix = f"panels/{panel.window.label}_s{int(panel.scale)}"
    channels = [PRICE, VOLUME]
    if panel.market_kind != STOCK:
        channels.append(MARKET_CAP)
    for channel in channels:
        ids = [aid for aid in sorted(panel.agents) if channel in panel.agents[aid]]
        if not ids:
            continue
        maps = {
            aid: dict(zip(panel.agents[aid][channel].periods,
                          panel.agents[aid][channel].values.tolist()))
            for aid in ids
        }
        rows = [
            [p.isoformat()] + [maps[aid].get(p) for aid in ids]
            for p in panel.period_axis
        ]
        out[f"{prefix}_{channel}.csv"] = _csv(["period"] + ids, rows)
    if panel.indexes:
        ids = sorted(panel.indexes)
        maps = {
            iid: dict(zip(panel.indexes[iid].periods,
                          panel.indexes[iid].values.tolist()))
            for iid in ids
        }
        axis = sorted({p for m in maps.values() for p in m})
        rows = [[p.isoformat()] + [maps[iid].get(p) for iid in ids] for p in axis]
        out[f"{prefix}_{INDEX}.csv"] = _csv(["period"] + ids, rows)
    return out


def run(config: RunConfig, dump_panels: bool = False) -> Path:
    """Execute and write all reports; on failure, remove partial outputs.

    A comparison.json left by an earlier run is removed when this run has
    no top-performer lists, so it cannot sit next to a manifest without one.
    """
    outputs = execute(config, dump_panels=dump_panels)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name in sorted(outputs):
            path = out_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(outputs[name].encode("utf-8"))
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    if "comparison.json" not in outputs:
        (out_dir / "comparison.json").unlink(missing_ok=True)
    logger.info("wrote %d report files to %s", len(written), out_dir)
    return out_dir
