"""End-to-end run: load inputs, compute all cases, render the reports.

A run covers every configured (window, scale) pair in one serial loop:
windows in config order and, in each, its scales from the finest (the
config sorts them). A scale aliases an earlier scale of its window when it
splits the window's observed days (each day an agent or index is quoted on)
into periods at the same days: ``np.diff(period_starts(days, scale)) != 0``
is equal for both. Period starts never decrease, so both scales then put
every agent's and index's rows in the same periods, in the same order, and
differ only in the periods' labels; the measures give the same ids, n_used
and A bit for bit. An alias builds no panel (unless --dump-panels writes
it) and computes no measures: it takes its first scale's case columns and
emits its cases under its own scale. Every other pair builds its panel
once and turns its results into what the reports read as soon as they are
computed (``_columns``): the alive count and, per measure, its included
agents' ids (in id order), A, A texts and periods used. A case without an
included agent fails the run there, so a run fails at its first failing
pair, and within a pair on its panel, then its measures, then its cases in
sorted measure order. The cases form one list, sorted once by (window,
measure, scale), that every report iterates, so report rows come out
sorted and identical for any input-file ordering; the performance metrics
are one table per window (``performance.PerformanceTable``), read by every
report that shows them. Reals are serialized with 17 significant digits
and lines end with \\n. Each A and performance value is formatted once,
for all reports (an alias's cases share their lists with its first
scale's), and a bin's min and max reuse those texts. Past them, the reports
format only each bin's mean, each Pearson r, each case's histogram edges
(once for both populations), each distinct density of a population, the
reals of comparison.json and the --dump-panels files. correlations.csv and
bins.csv reduce the same per-case columns (``_case_columns``), each only as
far as it reads them. bins.csv, correlations.csv and distributions.csv
render each case with a per-case function once for it and its aliases
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
    top_by_window = top_ids_for(config.windows, top)

    cases, excluded = [], []
    alive: dict[str, dict[str, int]] = {}
    panel_dumps: dict[str, str] = {}
    tables = {}
    for window in config.windows:
        sliced = [s for s in (slice_window(a, window) for a in agents) if s is not None]
        tables[window.label] = compute_performance(sliced, full_start, window)
        # the window's observed days and, per partition of them into periods
        # (the days that start one), the alive count and per-measure case
        # columns of the first scale to make it
        observed = [s.days for s in sliced] + [i.days[window.span(i.days)] for i in indexes]
        days = sorted_unique(np.concatenate(observed or [np.zeros(0, dtype=np.int64)]))
        computed = {}
        for scale in config.scales:
            pair = computed.get(key := (np.diff(period_starts(days, scale)) != 0).tobytes())
            try:
                if pair is None or dump_panels:
                    panel = build_panel(sliced, indexes, window, scale)
                if pair is None:
                    ws = compute_measures(panel, config.measures)
            except ComputeError as exc:
                raise ComputeError(f"{exc} in window {window.label} at scale {scale:d}") from None
            if pair is None:
                pair = computed[key] = _columns(ws, window.label, int(scale))
            alive.setdefault(window.label, {})[str(int(scale))] = pair[0]
            for measure, (*columns, out) in pair[1].items():
                case = (window.label, measure, int(scale))
                cases.append((*case, *columns))
                if out:
                    excluded.append((*case, out))
            if dump_panels:
                panel_dumps.update(_panel_dumps(panel))
    cases.sort(key=itemgetter(0, 1, 2))
    if excluded:
        logger.info("agents excluded in %d of %d cases (no overlapping periods): %s",
                    len(excluded), len(cases), "; ".join(
                        f"{w}/{m}/{s}: {out}" for w, m, s, out in sorted(excluded)))

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


def _columns(ws, window: str, scale: int) -> tuple[int, dict]:
    """The pair's alive count and, per measure in sorted order, the columns
    of its case over the agents with n_used > 0, in ``ws.alive_agents``
    order: (ids, A, A texts, n_used, the other agents' ids joined by ", ").
    Each A, a float, is formatted here once, as by fmt; an alias's cases
    share these lists. A case without such an agent fails the run here."""
    columns, ids = {}, ws.alive_agents
    for measure, sc in ws.scores.items():
        if not len(used := np.flatnonzero(sc.counts)):
            raise ComputeError(f"no agent has antifragility in case {window}/{measure}/{scale}")
        a = sc.global_a[used].tolist()
        out = ", ".join(compress(ids, sc.counts == 0)) if len(used) < len(ids) else ""
        columns[measure] = ([ids[k] for k in used.tolist()], a,
                            list(map(format, a, repeat(".17g"))), sc.counts[used].tolist(), out)
    return len(ids), columns


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
    """Per case, its ``window,measure,scale,`` prefix and ``render(case,
    cache)`` of the first case of its window with the same A list: a scale's
    cases share their lists with the cases of the scales that alias it,
    which have the same agents and A bits, so an alias takes its first
    case's result, as that case's rows depend on nothing else of it.
    ``cache`` is one dict per window, which ``render`` may fill with what the
    window's cases share. Keyed on the list's id: ``cases`` keeps every list
    alive, so no id is reused while they are walked."""
    current = None
    for case in cases:
        window, measure, scale, _, a_values, _, _ = case
        if window != current:
            current, cache, results = window, {}, {}
        if (result := results.get(id(a_values))) is None:
            result = results[id(a_values)] = render(case, cache)
        yield f"{window},{measure},{scale},", result


def _lines(prefix: str, bodies: list[str]) -> str:
    """One line per body, each ``prefix`` then the body, ending with \\n."""
    return prefix + ("\n" + prefix).join(bodies) + "\n" if bodies else ""


def _case_columns(case, cache, table, reduce):
    """Per performance variable, (name, n, x, y): the number of the case's
    agents that define the variable in its window's ``table`` and, when
    there are any, ``reduce(values, texts)`` of their A column and of the
    variable's column, ``texts`` an iterator over the values' texts. An A
    column is reduced once per defined mask, and a performance column once
    per variable and rows of the window (``cache``, the window's)."""
    _, _, _, ids, a_values, a_text, _ = case
    rows = np.array([table.row_of.get(aid, -1) for aid in ids], dtype=np.intp)
    a_all = np.array(a_values, dtype=float)
    defined = ~np.isnan(table.values[rows])
    a_cache, columns = {}, []
    for j, name in enumerate(PERF_VARIABLES):
        mask = defined[:, j]
        x = y = None
        if n := int(np.count_nonzero(mask)):
            if (x := a_cache.get(key := mask.tobytes())) is None:
                x = a_cache[key] = reduce(a_all[mask], compress(a_text, mask.tolist()))
            used = rows[mask]
            if (y := cache.get(key := (j, used.tobytes()))) is None:
                y = cache[key] = reduce(table.values[used, j],
                                        (table.text[r][j] for r in used.tolist()))
        columns.append((name, n, x, y))
    return columns


def _render_correlations(cases, tables):
    """correlations.csv, one piece per case: per performance variable, the
    Pearson r over the agents that define it, from each column's deviations
    and their sum of squares, and the agents' number. Rendered once per
    case and its aliases (``_shared``)."""
    yield "window,measure,scale,perf_variable,r,n_pairs\n"

    def body(case, cache):
        return [f"{name},{fmt(analysis.correlation(x, y) if n else None)},{n}"
                for name, n, x, y in _case_columns(
                    case, cache, tables[case[0]],
                    lambda values, _: analysis.deviations(values.tolist()))]

    for prefix, lines in _shared(cases, body):
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

    def body(case, cache):
        skipped, bins = [], []
        for name, n, x, y in _case_columns(case, cache, tables[case[0]], lambda values, texts: (
                values.tolist(), np.argsort(values, kind="stable").tolist(), list(texts))):
            if n < analysis.QUANTILE_BINS:
                if n:
                    skipped.append(name)
                continue
            if (bounds := bounds_of.get(n)) is None:
                bounds = bounds_of[n] = analysis.bin_bounds(n)
            for pair, (_, by, _), (of, _, text) in ((f"A,{name},", x, y), (f"{name},A,", y, x)):
                bins += [f"{pair}{index},{size},{text[lo]},{mean:.17g},{text[hi]}"
                         for index, (size, lo, mean, hi)
                         in enumerate(analysis.bin_stats(by, of, bounds))]
        return bins, skipped

    skipped_cases = 0
    skipped_names: set[str] = set()
    for prefix, (bins, skipped) in _shared(cases, body):
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

    def body(case, _):
        window, _, _, ids, a_values, _, _ = case
        dist = analysis.distribution(a_values, n_bins=n_bins)
        edges = list(map(format, dist.edges.tolist(), repeat(".17g")))
        spans = [f"{i},{left},{right}," for i, (left, right) in enumerate(zip(edges, edges[1:]))]
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
        return lines

    for prefix, lines in _shared(cases, body):
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
