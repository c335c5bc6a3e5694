"""End-to-end run: load inputs, compute all cases, render the reports.

A run covers every configured (window, scale) pair in one serial loop. Each
case builds its panel once and keeps only what the reports read: the alive
count, and its included agents' ids (in id order), A and periods used. The
cases form one list, sorted once by (window, measure, scale), that every
report iterates, so report rows come out sorted and identical for any
input-file ordering. Reals are serialized with 17 significant digits (each A
and performance value once, for all reports) and lines end with \\n.

Report files: antifragility.csv, performance.csv, scatter.csv, bins.csv,
distributions.csv, correlations.csv, comparison.json (when top-performer
lists were supplied), and run_manifest.json.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import analysis
from .config import INDEXES_BY_MEASURE, RunConfig
from .errors import IngestionError
from .ingestion import (
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
from .resampling import INDEX, build_panel

logger = logging.getLogger(__name__)


def fmt(value) -> str:
    """Canonical field serialization: 17 significant digits for reals, an
    empty field for None."""
    if value is None:
        return ""
    return format(float(value), ".17g")


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
    agents = [load_agent_series(p, config.market_kind) for p in agent_files]

    index_files: dict[str, Path] = {}
    for iid in sorted({i for m in config.measures for i in INDEXES_BY_MEASURE.get(m, ())}):
        path = config.index_dir / f"{iid.lower()}.csv"
        if not path.is_file():
            raise IngestionError(f"missing index file {path}")
        index_files[iid] = path
    indexes: list[IndexSeries] = [load_index_series(p, i) for i, p in index_files.items()]

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

    scored = []
    alive: dict[str, dict[str, int]] = {}
    panel_dumps: dict[str, str] = {}
    for window in config.windows:
        for scale in config.scales:
            panel = build_panel(sliced_by_window[window.label], indexes, window, scale)
            ws = compute_measures(panel, config.measures)
            alive.setdefault(window.label, {})[str(int(scale))] = len(ws.alive_agents)
            scored.extend(
                (window.label, m, int(scale), ws.alive_agents, sc.global_a, sc.counts)
                for m, sc in ws.scores.items()
            )
            if dump_panels:
                panel_dumps.update(_panel_dumps(panel))
    cases = _case_list(scored)

    # performance per window, only for agents alive in that window
    perf_variables: dict[tuple[str, str], dict[str, float | None]] = {
        (w.label, s.agent_id): compute_performance(s, full_start[s.agent_id], w)
        for w in config.windows
        for s in sliced_by_window[w.label]
    }
    perf_text = {
        key: {name: None if v is None else fmt(v) for name, v in variables.items()}
        for key, variables in perf_variables.items()
    }

    outputs: dict[str, str] = {}
    outputs["antifragility.csv"], outputs["scatter.csv"] = (
        _render_antifragility_and_scatter(cases, perf_text)
    )
    outputs["performance.csv"] = _render_performance(perf_text, top_by_window)
    outputs["bins.csv"], outputs["correlations.csv"] = _render_bins_and_correlations(
        cases, perf_variables
    )
    outputs["distributions.csv"] = _render_distributions(
        cases, top_by_window, config.n_hist_bins
    )
    if top_lists is not None:
        stats = analysis.top_comparison(
            {(w, m, s): dict(zip(ids, a)) for w, m, s, ids, a, _, _ in cases},
            top_by_window,
        )
        outputs["comparison.json"] = _comparison_json(stats)
    outputs["run_manifest.json"] = _manifest_json(config, digests, alive)
    outputs.update(panel_dumps)
    return outputs


def _case_list(scored) -> list:
    """The cases sorted by (window, measure, scale), each one (window,
    measure, scale, ids, A, A texts, n_used) over the agents with n_used > 0,
    in ``ids`` order. ``scored`` holds (window, measure, scale, ids, global A
    array, n_used array). Each A is formatted here, once, for every report."""
    cases = []
    for window, measure, scale, ids, global_a, counts in scored:
        used = np.flatnonzero(counts)
        a = global_a[used].tolist()
        cases.append((window, measure, scale, [ids[k] for k in used.tolist()], a,
                      [fmt(v) for v in a], counts[used].tolist()))
    return sorted(cases, key=lambda case: case[:3])


def _render_antifragility_and_scatter(cases, perf_text) -> tuple[str, str]:
    """antifragility.csv and scatter.csv, which sets every agent's A next to
    each of its defined performance variables (sorted by name); an agent
    without performance in the window has no scatter rows."""
    cells = {
        key: [f"{name},{t}" for name, t in sorted(texts.items()) if t is not None]
        for key, texts in perf_text.items()
    }
    antifragility = ["agent_id,measure,scale,window,global_A,n_used"]
    scatter = ["window,measure,scale,agent_id,A,perf_variable,perf_value"]
    for window, measure, scale, ids, _, a_text, used in cases:
        for aid, a, n in zip(ids, a_text, used):
            antifragility.append(f"{aid},{measure},{scale},{window},{a},{n}")
            agent_cells = cells.get((window, aid))
            if agent_cells:
                prefix = f"{window},{measure},{scale},{aid},{a},"
                scatter.extend(map(prefix.__add__, agent_cells))
    return _text(antifragility), _text(scatter)


def _render_performance(perf_text, top_by_window) -> str:
    lines = [",".join(["agent_id", "window", *PERF_VARIABLES, "is_top_performer"])]
    for (window, aid), texts in sorted(perf_text.items()):
        values = ",".join(texts[name] or "" for name in PERF_VARIABLES)
        top = "true" if aid in top_by_window[window] else "false"
        lines.append(f"{aid},{window},{values},{top}")
    return _text(lines)


def _render_bins_and_correlations(cases, perf_variables) -> tuple[str, str]:
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
            skipped_cases, len(cases),
            ", ".join(n for n in PERF_VARIABLES if n in skipped_names),
        )
    return _text(bins), _text(correlations)


def _render_distributions(cases, top_by_window, n_bins) -> str:
    lines = ["window,measure,scale,population,bin_index,"
             "bin_left,bin_right,density,sample_count"]
    for window, measure, scale, ids, a_values, _, _ in cases:
        dist = analysis.distribution(a_values, n_bins=n_bins)
        populations = [("all", dist)]
        top_values = [a for aid, a in zip(ids, a_values) if aid in top_by_window[window]]
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
    return (
        "{\n"
        f'  "cases_total": {stats.cases_total},\n'
        f'  "cases_top_greater": {stats.cases_top_greater},\n'
        f'  "fraction_top_greater": {fmt(stats.fraction_top_greater)},\n'
        f'  "sum_diff_when_greater": {fmt(stats.sum_diff_when_greater)},\n'
        f'  "sum_diff_otherwise": {fmt(stats.sum_diff_otherwise)},\n'
        f'  "ratio": {fmt(stats.ratio) or "null"}\n'
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
    """Debug export of one panel, read from its tables: one CSV per channel
    with rows (period x agent with rows). Agents share the panel's period
    axis; the indexes, one column each, span their own periods."""
    tables = [
        (name, panel.period_axis,
         [(aid, ch.days[s], ch.values[s]) for aid, s in ch.split(panel.ids).items()])
        for name, ch in panel.channels.items()
    ]
    index = [(iid, ch.days, ch.values) for iid, ch in sorted(panel.indexes.items())]
    if index:
        tables.append((INDEX, np.unique(np.concatenate([c[1] for c in index])), index))
    out = {}
    prefix = f"panels/{panel.window.label}_s{int(panel.scale)}"
    for name, axis, columns in tables:
        if not columns:
            continue
        rows = [[d.isoformat()] + [""] * len(columns) for d in to_dates(axis)]
        for column, (_, days, values) in enumerate(columns, 1):
            for row, value in zip(axis.searchsorted(days).tolist(), values.tolist()):
                rows[row][column] = fmt(value)
        header = ["period"] + [c[0] for c in columns]
        out[f"{prefix}_{name}.csv"] = _text([",".join(r) for r in [header, *rows]])
    return out


def run(config: RunConfig, dump_panels: bool = False) -> Path:
    """Execute and write all reports; a failed write keeps the previous ones.

    The reports are written into a temporary directory inside ``output_dir``
    (always removed afterwards) and, once all are written and no report path
    is a directory, moved into place with ``os.replace``, run_manifest.json
    last. Then the reports of an earlier run that this run does not write
    (comparison.json, panels/*.csv, then an empty panels/) are removed, so
    none can sit next to this run's manifest.
    """
    outputs = execute(config, dump_panels=dump_panels)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(outputs, key=lambda name: (name == "run_manifest.json", name))
    staging = Path(tempfile.mkdtemp(prefix=".antifrag-", dir=out_dir))
    try:
        for name in names:
            path = staging / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(outputs[name].encode("utf-8"))
        for name in names:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(f"report path {out_dir / name} is a directory")
        for parent in {(out_dir / name).parent for name in names}:
            parent.mkdir(parents=True, exist_ok=True)
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging)
    if "comparison.json" not in outputs:
        (out_dir / "comparison.json").unlink(missing_ok=True)
    panels = out_dir / "panels"
    if panels.is_dir():
        for path in panels.glob("*.csv"):
            if f"panels/{path.name}" not in outputs:
                path.unlink()
        if not any(panels.iterdir()):
            panels.rmdir()
    logger.info("wrote %d report files to %s", len(names), out_dir)
    return out_dir
