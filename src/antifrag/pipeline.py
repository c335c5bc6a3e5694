"""End-to-end run: load inputs, compute all cases, render the reports.

A run covers every configured (window, scale) pair in one serial loop. Each
case builds its panel once, keeps only what the reports read (every agent's
global antifragility and periods used, and the alive count) and drops the
rest. Every report row is sorted, which keeps output bytes identical for any
input-file ordering. Reals are serialized with 17 significant digits (every
agent's A and performance values once, for all the per-agent reports) and
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
    to_dates,
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
    return _text(lines)


def _text(lines: list[str]) -> str:
    """The lines, each ending with \\n. Appending an empty line costs less
    than adding \\n to the joined text, which would copy all of it again."""
    lines.append("")
    return "\n".join(lines)


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
        needed = {"afx": ("VIX",), "af3m": ("NASDAQ", "DJI", "SPX")}
        for iid in sorted({i for m in config.measures for i in needed.get(m, ())}):
            path = config.index_dir / f"{iid.lower()}.csv"
            if not path.is_file():
                raise IngestionError(f"missing index file {path}")
            index_files[iid] = path
    indexes: list[IndexSeries] = [
        load_index_series(path, iid) for iid, path in sorted(index_files.items())
    ]

    digests = {f"agents/{p.name}": _digest(p) for p in agent_files}
    digests.update({f"indexes/{p.name}": _digest(p) for p in index_files.values()})
    top_lists = None
    if (top_path := config.top_performers_path) is not None:
        top_lists = load_top_performers(top_path)
        digests[f"top/{top_path.name}"] = _digest(top_path)

    full_start = {a.agent_id: a.first_date for a in agents}
    top_by_window = {w.label: top_ids_for(w, top_lists) for w in config.windows}

    sliced_by_window: dict[str, list[AgentSeries]] = {
        w.label: [s for s in (slice_window(a, w) for a in agents) if s is not None]
        for w in config.windows
    }

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

    # performance per window, only for agents alive in that window
    perf_variables: dict[tuple[str, str], dict[str, float | None]] = {
        (w.label, s.agent_id): compute_performance(s, full_start[s.agent_id], w)
        for w in config.windows
        for s in sliced_by_window[w.label]
    }

    a_text, perf_text = _format_values(case_values, perf_variables)
    outputs: dict[str, str] = {}
    antifragility = ["agent_id,measure,scale,window,global_A,n_used"]
    for (window, measure, scale), texts in sorted(a_text.items()):
        used = n_used[(window, measure, scale)]
        antifragility.extend(
            f"{aid},{measure},{scale},{window},{a},{used[aid]}"
            for aid, a in sorted(texts.items())
        )
    outputs["antifragility.csv"] = _text(antifragility)
    outputs["scatter.csv"] = _render_scatter(a_text, perf_text)
    outputs["performance.csv"] = _render_performance(perf_text, top_by_window)
    outputs["bins.csv"], outputs["correlations.csv"] = _render_bins_and_correlations(
        case_values, perf_variables
    )
    outputs["distributions.csv"] = _render_distributions(
        case_values, top_by_window, config.n_hist_bins
    )
    if top_lists is not None:
        stats = analysis.top_comparison(case_values, top_by_window)
        outputs["comparison.json"] = _comparison_json(stats)
    outputs["run_manifest.json"] = _manifest_json(config, digests, alive)
    outputs.update(panel_dumps)
    return outputs


def _format_values(case_values, perf_variables):
    """Each A and performance value formatted once, for every per-agent
    report: (case -> agent -> A text, (window label, agent id) -> variable
    -> text, None when undefined). ``age_days``, a float here, renders as
    the int it is."""
    a_text = {
        key: {aid: fmt(a) for aid, a in values.items()}
        for key, values in case_values.items()
    }
    perf_text = {
        key: {name: None if v is None else fmt(v) for name, v in variables.items()}
        for key, variables in perf_variables.items()
    }
    return a_text, perf_text


def _render_scatter(a_text, perf_text) -> str:
    """Every agent's A next to each of its defined performance variables,
    sorted by window, measure, scale, agent and variable name; an agent
    without performance in the window has no rows. Takes the text maps of
    ``_format_values``."""
    cells = {
        key: [f"{name},{t}" for name, t in sorted(texts.items()) if t is not None]
        for key, texts in perf_text.items()
    }
    lines = ["window,measure,scale,agent_id,A,perf_variable,perf_value"]
    for (window, measure, scale), texts in sorted(a_text.items()):
        for aid, a in sorted(texts.items()):
            agent_cells = cells.get((window, aid))
            if agent_cells:
                prefix = f"{window},{measure},{scale},{aid},{a},"
                lines.extend(map(prefix.__add__, agent_cells))
    return _text(lines)


def _render_performance(perf_text, top_by_window) -> str:
    lines = [",".join(["agent_id", "window", *PERF_VARIABLES, "is_top_performer"])]
    for (window, aid), texts in sorted(perf_text.items()):
        values = ",".join(texts[name] or "" for name in PERF_VARIABLES)
        lines.append(f"{aid},{window},{values},{fmt(aid in top_by_window[window])}")
    return _text(lines)


def _defined(agents, name) -> list[tuple[str, float, float]]:
    """(agent, A, variable) for every agent of ``agents`` whose performance
    variable ``name`` is defined; ``agents`` holds (agent, A, variables)."""
    return [(aid, a, variables[name]) for aid, a, variables in agents
            if variables[name] is not None]


def _render_bins_and_correlations(case_values, perf_variables) -> tuple[str, str]:
    """bins.csv and correlations.csv, from one join per case and performance
    variable: its Pearson r, and both binning directions when at least five
    agents have the variable defined."""
    bins = ["window,measure,scale,bin_by,stat_of,bin_index,count,min,mean,max"]
    correlations = ["window,measure,scale,perf_variable,r,n_pairs"]
    skipped_cases = 0
    skipped_names: set[str] = set()
    for (window, measure, scale), values in sorted(case_values.items()):
        case = f"{window},{measure},{scale},"
        agents = [
            (aid, a, perf_variables[(window, aid)])
            for aid, a in sorted(values.items())
            if (window, aid) in perf_variables
        ]
        skipped = []
        for name in PERF_VARIABLES:
            entries = _defined(agents, name)
            r = analysis.pearson([e[1] for e in entries], [e[2] for e in entries])
            correlations.append(f"{case}{name},{fmt(r)},{len(entries)}")
            if len(entries) < 5:
                skipped.append(name)
                continue
            flipped = [(aid, var, a) for aid, a, var in entries]
            for bin_by, stat_of, triples in (("A", name, entries), (name, "A", flipped)):
                bins.extend(
                    f"{case}{s.bin_by},{s.stat_of},{s.bin_index},{s.count},"
                    f"{fmt(s.min)},{fmt(s.mean)},{fmt(s.max)}"
                    for s in analysis.quantile_bin_summary(triples, bin_by, stat_of)
                )
        skipped_cases += bool(skipped)
        skipped_names.update(skipped)
    if skipped_cases:
        logger.warning(
            "bins skipped in %d of %d cases (fewer than 5 agents defined): %s",
            skipped_cases, len(case_values),
            ", ".join(n for n in PERF_VARIABLES if n in skipped_names),
        )
    return _text(bins), _text(correlations)


def _render_distributions(case_values, top_by_window, n_bins) -> str:
    lines = ["window,measure,scale,population,bin_index,"
             "bin_left,bin_right,density,sample_count"]
    for (window, measure, scale), values in sorted(case_values.items()):
        ordered = sorted(values)
        dist = analysis.distribution([values[aid] for aid in ordered], n_bins=n_bins)
        populations = [("all", dist)]
        top_values = [values[aid] for aid in ordered if aid in top_by_window[window]]
        if top_values:
            top = analysis.distribution(top_values, edges=dist.edges)
            populations.append(("top", top))
        for population, d in populations:
            prefix = f"{window},{measure},{scale},{population},"
            edges = [fmt(e) for e in d.edges.tolist()]
            lines.extend(
                f"{prefix}{i},{edges[i]},{edges[i + 1]},{fmt(density)},{d.sample_count}"
                for i, density in enumerate(d.densities.tolist())
            )
    return _text(lines)


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
        "top_performers_path": None if config.top_performers_path is None
        else str(config.top_performers_path),
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
    channels = [PRICE, VOLUME] + ([] if panel.market_kind == STOCK else [MARKET_CAP])
    tables = [
        (c, {aid: ch[c] for aid, ch in panel.agents.items() if c in ch}) for c in channels
    ]
    for name, series in tables + [(INDEX, panel.indexes)]:
        if not series:
            continue
        ids = sorted(series)
        # agents share the panel's period axis; indexes span their own periods
        axis = panel.period_axis
        if name == INDEX:
            axis = np.unique(np.concatenate([series[i].days for i in ids]))
        rows = [[d.isoformat()] + [None] * len(ids) for d in to_dates(axis)]
        for column, i in enumerate(ids, 1):
            at = np.searchsorted(axis, series[i].days).tolist()
            for row, value in zip(at, series[i].values.tolist()):
                rows[row][column] = value
        out[f"{prefix}_{name}.csv"] = _csv(["period"] + ids, rows)
    return out


def run(config: RunConfig, dump_panels: bool = False) -> Path:
    """Execute and write all reports; on failure, remove partial outputs.

    After a successful write, the reports of an earlier run that this run
    does not write (comparison.json, panels/*.csv, then an empty panels/)
    are removed, so none can sit next to this run's manifest.
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
    panels = out_dir / "panels"
    if panels.is_dir():
        for path in panels.glob("*.csv"):
            if f"panels/{path.name}" not in outputs:
                path.unlink()
        if not any(panels.iterdir()):
            panels.rmdir()
    logger.info("wrote %d report files to %s", len(written), out_dir)
    return out_dir
