"""End-to-end run: load inputs, compute all cases, render the reports.

A run covers every configured (window, scale) pair in one serial loop. A
scale aliases an earlier scale of its window (in config order) when it
splits the window's observed days (each day an agent or index is quoted on)
into periods at the same days: ``np.diff(period_starts(days, scale)) != 0``
is equal for both. Period starts never decrease, so both scales then put
every agent's and index's rows in the same periods, in the same order, and
differ only in the periods' labels; the measures give the same ids, n_used
and A bit for bit. An alias builds no panel (unless --dump-panels writes
it) and computes no measures: it takes its first scale's results and emits
its cases under its own scale. Every other pair builds its panel once and
keeps only what the reports read: the alive count, and its included agents'
ids (in id order), A and periods used. The cases form one list, sorted once
by (window, measure, scale), that every report iterates, so report rows
come out sorted and identical for any input-file ordering; the performance
metrics are one table per window (``performance.PerformanceTable``), read
by every report that shows them. Reals are serialized with 17 significant
digits and lines end with \\n. Each A and performance value is formatted
once, for all reports (an alias's cases share their lists with its first
scale's), and a bin's min and max reuse those texts. Past them, the reports
format only each bin's mean, each Pearson r, each case's histogram edges
(once for both populations), each distinct density of a population, the
reals of comparison.json and the --dump-panels files. correlations.csv and
bins.csv walk the same per-case columns (``_case_columns``), each reducing
a column only as far as it reads it. bins.csv, correlations.csv and
distributions.csv render the cases of a scale and its aliases once
(``_shared``): an alias writes its first scale's lines under its own
prefix. scatter.csv and antifragility.csv stay per case.

Report files: antifragility.csv, performance.csv, scatter.csv, bins.csv,
distributions.csv, correlations.csv, comparison.json (when top-performer
lists were supplied), and run_manifest.json. Each is a sequence of text
pieces (one per case or window where it grows with the agents), rendered
from the cases and tables alone as ``run`` writes them into its staged file
or ``execute`` joins them.
"""

from __future__ import annotations

# for config.read_text's digests: imported there, mid-run, it raised the
# peak RSS; validate, which digests nothing, does not import this module
import hashlib  # noqa: F401
import json
import logging
import os
import shutil
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import analysis
from .config import INDEXES_BY_MEASURE, RunConfig
from .errors import ComputeError, IngestionError
from .ingestion import (
    load_agent_series,
    load_index_series,
    load_top_performers,
    slice_window,
    to_dates,
)
from .measures import compute_measures
from .performance import PERF_VARIABLES, compute_performance, top_ids_for
from .resampling import INDEX, PRICE, build_panel, period_starts, sorted_unique

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


def execute(config: RunConfig, dump_panels: bool = False) -> dict[str, str]:
    """Produce every report as text, keyed by file name. Writes nothing."""
    return {name: "".join(pieces) for name, pieces in _reports(config, dump_panels)}


def _reports(config: RunConfig, dump_panels: bool):
    """Load the inputs, walk each window once (slice its agents, build its
    performance table, then its cases scale by scale), and compute the top
    comparison: all of a run that can fail, so a check belongs here and not
    in a renderer. Return every report as (file name, text pieces),
    run_manifest.json last. A piece is whole lines, rendered as it is read
    from the cases and tables alone, so the reports may be read in any order."""
    agent_files = sorted(config.data_dir.glob("*.csv"))
    if not agent_files:
        raise IngestionError(f"no agent CSV files in {config.data_dir}")
    # each agent's rows in the windows' hull, and its first day (full_start)
    span = (min(w.start for w in config.windows), max(w.end for w in config.windows))
    # each input's SHA-256, of the bytes its loader read and decoded
    read: dict[Path, str] = {}
    agents = [load_agent_series(p, config.market_kind, span, read) for p in agent_files]

    index_files: dict[str, Path] = {}
    for iid in sorted({i for m in config.measures for i in INDEXES_BY_MEASURE.get(m, ())}):
        path = config.index_dir / f"{iid.lower()}.csv"
        if not path.is_file():
            raise IngestionError(f"missing index file {path}")
        index_files[iid] = path
    indexes = [load_index_series(p, i, read) for i, p in index_files.items()]

    digests = {f"agents/{p.name}": read[p] for p in agent_files}
    digests.update({f"indexes/{p.name}": read[p] for p in index_files.values()})
    top = None
    if (top_path := config.top_performers_path) is not None:
        top = load_top_performers(top_path, read)
        digests[f"top/{top_path.name}"] = read[top_path]

    full_start = {a.agent_id: a.first_date for a in agents}
    top_by_window = {w.label: top_ids_for(w, top) for w in config.windows}

    scored = []
    alive: dict[str, dict[str, int]] = {}
    panel_dumps: dict[str, str] = {}
    tables = {}
    for window in config.windows:
        sliced = [s for s in (slice_window(a, window) for a in agents) if s is not None]
        tables[window.label] = compute_performance(sliced, full_start, window)
        # the window's observed days and, per partition of them into periods
        # (the days that start one), the results of the first scale to make it
        observed = [s.days for s in sliced] + [i.days[window.span(i.days)] for i in indexes]
        days = sorted_unique(np.concatenate(observed or [np.zeros(0, dtype=np.int64)]))
        computed = {}
        for scale in config.scales:
            ws = computed.get(key := (np.diff(period_starts(days, scale)) != 0).tobytes())
            try:
                if ws is None or dump_panels:
                    panel = build_panel(sliced, indexes, window, scale)
                if ws is None:
                    ws = computed[key] = compute_measures(panel, config.measures)
            except ComputeError as exc:
                raise ComputeError(f"{exc} in window {window.label} at scale {scale:d}") from None
            alive.setdefault(window.label, {})[str(int(scale))] = len(ws.alive_agents)
            scored.extend(
                (window.label, m, int(scale), ws.alive_agents, sc.global_a, sc.counts)
                for m, sc in ws.scores.items()
            )
            if dump_panels:
                panel_dumps.update(_panel_dumps(panel))
    cases = _case_list(scored)

    reports = [
        ("antifragility.csv", _render_antifragility(cases)),
        ("scatter.csv", _render_scatter(cases, tables)),
        ("performance.csv", _render_performance(tables, top_by_window)),
        ("bins.csv", _render_bins(cases, tables)),
        ("correlations.csv", _render_correlations(cases, tables)),
        ("distributions.csv", _render_distributions(cases, top_by_window, config.n_hist_bins)),
    ]
    if top is not None:
        stats = analysis.top_comparison(
            {(w, m, s): dict(zip(ids, a)) for w, m, s, ids, a, _, _ in cases}, top_by_window)
        reports.append(("comparison.json", [_comparison_json(stats)]))
    reports += [(name, [text]) for name, text in panel_dumps.items()]
    return reports + [("run_manifest.json", [_manifest_json(config, digests, alive)])]


def _case_list(scored) -> list:
    """The cases sorted by (window, measure, scale), each one (window,
    measure, scale, ids, A, A texts, n_used) over the agents with n_used > 0,
    in ``ids`` order. ``scored`` holds (window, measure, scale, ids, global A
    array, n_used array); the cases of entries with one global A array (a
    scale and the scales that alias it) share their lists, so each A, a
    float, is formatted here once, as by fmt. A case without such an agent
    fails the run here, before any write; the cases that exclude some are
    named, in case order, in one INFO line."""
    cases, excluded, lists = [], [], {}
    for window, measure, scale, ids, global_a, counts in scored:
        # an alias's entries hold its first scale's arrays; keyed on the
        # array's id, which the array in the value keeps from reuse
        if (shared := lists.get(id(global_a))) is None:
            used = np.flatnonzero(counts)
            if not len(used):
                raise ComputeError(f"no agent has antifragility in case {window}/{measure}/{scale}")
            out = ", ".join(compress(ids, counts == 0)) if len(used) < len(ids) else ""
            a = global_a[used].tolist()
            shared = lists[id(global_a)] = (global_a, out, [ids[k] for k in used.tolist()], a,
                                            list(map(format, a, repeat(".17g"))),
                                            counts[used].tolist())
        _, out, *columns = shared
        if out:
            excluded.append((window, measure, scale, out))
        cases.append((window, measure, scale, *columns))
    if excluded:
        logger.info("agents excluded in %d of %d cases (no overlapping periods): %s",
                    len(excluded), len(cases), "; ".join(
                        f"{w}/{m}/{s}: {out}" for w, m, s, out in sorted(excluded)))
    return sorted(cases, key=lambda case: case[:3])


def _render_antifragility(cases):
    """antifragility.csv, one piece per case."""
    yield "agent_id,measure,scale,window,global_A,n_used\n"
    for window, measure, scale, ids, _, a_text, used in cases:
        yield _text([f"{aid},{measure},{scale},{window},{a},{n}"
                     for aid, a, n in zip(ids, a_text, used)])


def _render_scatter(cases, tables):
    """scatter.csv, one piece per case: every agent's A next to each of its
    defined performance variables (sorted by name); an agent without
    performance in the window has no rows. Per window, each table row's
    ``name,value`` cells are built once; per (case, agent), its rows are one
    string, those cells each after the row prefix."""
    yield "window,measure,scale,agent_id,A,perf_variable,perf_value\n"
    by_name = sorted(enumerate(PERF_VARIABLES), key=itemgetter(1))  # (column, name)
    current = None
    for window, measure, scale, ids, _, a_text, _ in cases:
        if window != current:
            current, row_of = window, tables[window].row_of
            cells = [[f"{name},{t[j]}" for j, name in by_name if t[j]]
                     for t in tables[window].text]
        lines = []
        for aid, a in zip(ids, a_text):
            if defined := cells[row_of.get(aid, -1)]:
                prefix = f"{window},{measure},{scale},{aid},{a},"
                lines.append(prefix + ("\n" + prefix).join(defined))
        yield _text(lines)


def _render_performance(tables, top_by_window):
    """performance.csv, one piece per window."""
    yield ",".join(["agent_id", "window", *PERF_VARIABLES, "is_top_performer"]) + "\n"
    for window, table in sorted(tables.items()):
        top = top_by_window[window]
        yield _text([f"{aid},{window},{','.join(table.text[row])},"
                     f"{'true' if aid in top else 'false'}"
                     for aid, row in table.row_of.items()])


def _shared(cases, render):
    """Per case, its ``window,measure,scale,`` prefix and ``render``'s result
    for the first case of its window with the same A list: ``_case_list``
    gives one list to a scale's case and to the cases of the scales that
    alias it, which have the same agents and A bits, so an alias takes its
    first case's result, as that case's rows depend on nothing else of it.
    ``render`` maps an iterator over the first cases, in case order, to one
    result each; it draws each one as it is met. The memo of results is
    cleared at each window change."""
    pending = []  # the first case render draws next
    results = render(iter(pending.pop, None))
    current = None
    for case in cases:
        window, measure, scale, _, a_values, _, _ = case
        if window != current:
            current, memo = window, {}
        # keyed on the list's id, which the list in the value keeps from reuse
        if (hit := memo.get(id(a_values))) is None:
            pending.append(case)
            hit = memo[id(a_values)] = (a_values, next(results))
        yield f"{window},{measure},{scale},", hit[1]


def _lines(prefix: str, bodies: list[str]) -> str:
    """One line per body, each ``prefix`` then the body, ending with \\n."""
    return prefix + ("\n" + prefix).join(bodies) + "\n" if bodies else ""


def _case_columns(cases, tables, reduce):
    """Per case, per performance variable, (name, n, x, y): the number of
    the case's agents that define the variable and, when there are any,
    ``reduce(values, texts)`` of their A column and of the variable's
    column, ``texts`` an iterator over the values' texts. An A column is
    reduced once per case and defined mask, and a performance column once
    per window, variable and rows."""
    current = None
    for window, _, _, ids, a_values, a_text, _ in cases:
        if window != current:
            current, p_cache = window, {}
            row_of, table, text = tables[window].row_of, tables[window].values, tables[window].text
        rows = np.array([row_of.get(aid, -1) for aid in ids], dtype=np.intp)
        a_all = np.array(a_values, dtype=float)
        defined = ~np.isnan(table[rows])
        a_cache, columns = {}, []
        for j, name in enumerate(PERF_VARIABLES):
            mask = defined[:, j]
            x = y = None
            if n := int(np.count_nonzero(mask)):
                if (x := a_cache.get(key := mask.tobytes())) is None:
                    x = a_cache[key] = reduce(a_all[mask], compress(a_text, mask.tolist()))
                used = rows[mask]
                if (y := p_cache.get(key := (j, used.tobytes()))) is None:
                    y = p_cache[key] = reduce(table[used, j], (text[r][j] for r in used.tolist()))
            columns.append((name, n, x, y))
        yield columns


def _render_correlations(cases, tables):
    """correlations.csv, one piece per case: per performance variable, the
    Pearson r over the agents that define it, from each column's deviations
    and their sum of squares, and the agents' number. Rendered once per
    case and its aliases (``_shared``)."""
    yield "window,measure,scale,perf_variable,r,n_pairs\n"

    def bodies(firsts):
        for columns in _case_columns(
                firsts, tables, lambda values, _: analysis.deviations(values.tolist())):
            yield [f"{name},{fmt(analysis.correlation(x, y) if n else None)},{n}"
                   for name, n, x, y in columns]

    for prefix, lines in _shared(cases, bodies):
        yield _lines(prefix, lines)


def _render_bins(cases, tables):
    """bins.csv, one piece per case: both binning directions per performance
    variable that at least ``analysis.QUANTILE_BINS`` agents of the case
    define, from each column's values, stable ascending order and texts. A
    bin's min and max are the texts of the values ``analysis.bin_stats``
    picks; only its mean is formatted here. A variable that fewer agents,
    but some, define is skipped and named in one warning per run, which
    counts every case that skips one, an alias (``_shared``) as its first."""
    yield "window,measure,scale,bin_by,stat_of,bin_index,count,min,mean,max\n"
    bounds_of: dict[int, list[tuple[int, int]]] = {}

    def bodies(firsts):
        for columns in _case_columns(firsts, tables, lambda values, texts: (
                values.tolist(), np.argsort(values, kind="stable").tolist(), list(texts))):
            skipped, bins = [], []
            for name, n, x, y in columns:
                if n < analysis.QUANTILE_BINS:
                    if n:
                        skipped.append(name)
                    continue
                if (bounds := bounds_of.get(n)) is None:
                    bounds = bounds_of[n] = analysis.bin_bounds(n)
                for pair, (_, by, _), (of, _, text) in ((f"A,{name},", x, y),
                                                        (f"{name},A,", y, x)):
                    bins += [f"{pair}{index},{size},{text[lo]},{mean:.17g},{text[hi]}"
                             for index, (size, lo, mean, hi)
                             in enumerate(analysis.bin_stats(by, of, bounds))]
            yield bins, skipped

    skipped_cases = 0
    skipped_names: set[str] = set()
    for prefix, (bins, skipped) in _shared(cases, bodies):
        skipped_cases += bool(skipped)
        skipped_names.update(skipped)
        yield _lines(prefix, bins)
    if skipped_cases:
        logger.warning(
            "bins skipped in %d of %d cases (fewer than %d agents defined): %s",
            skipped_cases, len(cases), analysis.QUANTILE_BINS,
            ", ".join(n for n in PERF_VARIABLES if n in skipped_names),
        )


def _render_distributions(cases, top_by_window, n_bins):
    """distributions.csv, one piece per case, rendered once per case and
    its aliases (``_shared``). A case's edges are formatted once for both
    populations, and each distinct density once per population (densities
    are never negative, so no -0.0 shares a text with 0.0)."""
    yield "window,measure,scale,population,bin_index,bin_left,bin_right,density,sample_count\n"

    def bodies(firsts):
        for window, _, _, ids, a_values, _, _ in firsts:
            dist = analysis.distribution(a_values, n_bins=n_bins)
            edges = list(map(format, dist.edges.tolist(), repeat(".17g")))
            spans = [f"{i},{left},{right},"
                     for i, (left, right) in enumerate(zip(edges, edges[1:]))]
            populations = [("all", dist)]
            top_values = [a for aid, a in zip(ids, a_values) if aid in top_by_window[window]]
            if top_values:
                populations.append(("top", analysis.distribution(top_values, edges=dist.edges)))
            lines = []
            for population, d in populations:
                suffix = f",{d.sample_count}"
                densities = d.densities.tolist()
                density_text = {v: format(v, ".17g") for v in set(densities)}
                lines += [f"{population},{span}{density_text[v]}{suffix}"
                          for span, v in zip(spans, densities)]
            yield lines

    for prefix, lines in _shared(cases, bodies):
        yield _lines(prefix, lines)


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
    with rows (period x agent with rows). Agents share the price table's
    periods as axis; the indexes, one column each, span their own periods."""
    axis = sorted_unique(panel.channels[PRICE].days)
    tables = [
        (name, axis,
         [(aid, ch.days[s], ch.values[s]) for aid, s in ch.split(panel.ids).items()])
        for name, ch in panel.channels.items()
    ]
    index = [(iid, ch.days, ch.values) for iid, ch in sorted(panel.indexes.items())]
    if index:
        tables.append((INDEX, sorted_unique(np.concatenate([c[1] for c in index])), index))
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


def _write(path: Path, pieces) -> None:
    """Write a report piece by piece, UTF-8 encoded, line ends untouched."""
    with path.open("w", encoding="utf-8", newline="") as file:
        file.writelines(pieces)


def run(config: RunConfig, dump_panels: bool = False) -> Path:
    """Compute and write all reports; a failed run keeps the previous ones.

    The computations that can fail (``_reports``) run before ``output_dir``
    is touched, and a failed run removes an ``output_dir`` it made that is
    still empty. The reports are written piece by piece into the staging
    directory ``output_dir/.antifrag-staging`` (made once any ``.antifrag-*``
    directory a killed run left, and a file or symlink of its name, is
    removed, and always removed afterwards)
    and, once all are written and no report path is a directory, moved into
    place with ``os.replace``. Then the reports of an earlier run that this
    run does not write (comparison.json, panels/*.csv, then an empty panels/)
    are removed, and only then is run_manifest.json moved into place, so none
    can sit next to this run's manifest."""
    reports = _reports(config, dump_panels)
    out_dir = Path(config.output_dir)
    made = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    for orphan in out_dir.glob(".antifrag-*"):
        if orphan.is_dir() and not orphan.is_symlink():
            shutil.rmtree(orphan)
    staging = out_dir / ".antifrag-staging"
    staging.unlink(missing_ok=True)  # a file or symlink of its name, not followed
    staging.mkdir()
    try:
        names = []
        for name, pieces in reports:
            path = staging / name
            path.parent.mkdir(parents=True, exist_ok=True)
            _write(path, pieces)
            names.append(name)
        for name in names:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(f"report path {out_dir / name} is a directory")
        for parent in {(out_dir / name).parent for name in names}:
            parent.mkdir(parents=True, exist_ok=True)
        *others, manifest = names
        for name in others:
            os.replace(staging / name, out_dir / name)
        if "comparison.json" not in names:
            (out_dir / "comparison.json").unlink(missing_ok=True)
        panels = out_dir / "panels"
        if panels.is_dir():
            for path in panels.glob("*.csv"):
                if f"panels/{path.name}" not in names:
                    path.unlink()
            if not any(panels.iterdir()):
                panels.rmdir()
        os.replace(staging / manifest, out_dir / manifest)
    finally:
        shutil.rmtree(staging)
        if made and not any(out_dir.iterdir()):
            out_dir.rmdir()
    logger.info("wrote %d report files to %s", len(names), out_dir)
    return out_dir
