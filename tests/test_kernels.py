"""Property tests for the columnar kernels: load, slice, resample, join.

Random agents with random gap patterns and blank market caps go through the
CSV loader and the panel builder. Resampled volumes must equal a per-period
``np.sum`` loop bit for bit, and every panel must match the brute-force
oracle. The measures' array joins must equal a dict-per-period reference
bit for bit, and the bins, correlations and distributions rendered from
shared column reductions and texts must equal the text of the per-case
reference loops (bins and correlations once the reference's r and bin means
are clamped to their ranges, as the pipeline clamps them), also where cases
repeat another case's agents and A values.
"""

import datetime as dt
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from antifrag.ingestion import (
    STOCK,
    AnalysisWindow,
    agent_csv_text,
    load_agent_series,
    slice_window,
    to_dates,
)
from antifrag import measures
from antifrag.measures import MEASURES_BY_KIND
from antifrag.performance import PERF_VARIABLES
from antifrag.pipeline import _render_bins, _render_correlations, _render_distributions, fmt
from antifrag.resampling import VOLUME, TimeScale, build_panel

from conftest import (
    assert_engine_matches_oracle,
    engine_case,
    make_agent,
    perf_tables,
    plain_to_agents,
    plain_to_indexes,
    series_to_rows,
)
from bins_reference import render_bins_and_correlations
from distributions_reference import _render_distributions as reference_distributions
from oracle import oracle_compute, period_of

START = dt.date(2015, 12, 21)  # a Monday, so weeks and months straddle a year end
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WIDE = st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False)
MODERATE = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def markets(draw, values):
    """(kind, scale, {agent_id: rows}, {index_id: rows}) with random gaps."""
    kind = draw(st.sampled_from(["stock", "crypto"]))
    scale = draw(st.sampled_from([0, 1, 2]))
    agents = {}
    for k in range(draw(st.integers(1, 5))):
        # dense runs exercise long weekly/monthly buckets, sparse ones gaps
        offsets = draw(st.one_of(
            st.sets(st.integers(0, 150), min_size=2, max_size=40),
            st.builds(lambda a, n: set(range(a, a + n)),
                      st.integers(0, 60), st.integers(2, 90)),
        ))
        rows = []
        for i in sorted(offsets):
            cap = None
            if kind == "crypto":
                cap = draw(st.one_of(st.none(), values))
            rows.append((START + dt.timedelta(days=i), draw(values), draw(values), cap))
        agents[f"A{k}"] = rows
    indexes = {}
    if kind == STOCK:
        days = sorted({r[0] for rows in agents.values() for r in rows})
        for iid in ("VIX", "NASDAQ", "DJI", "SPX"):
            indexes[iid] = [(d, float(10 + (3 * j) % 7)) for j, d in enumerate(days)]
    return kind, scale, agents, indexes


def loaded(agents, kind):
    """Write each agent as CSV with its rows shuffled, then load it back."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for aid, rows in sorted(agents.items()):
            header, *lines = agent_csv_text(make_agent(aid, kind, rows)).splitlines()
            random.Random(aid).shuffle(lines)
            path = Path(tmp) / f"{aid}.csv"
            path.write_text("\n".join([header] + lines) + "\n")
            out.append(load_agent_series(path, kind))
    return out


def window_of(agents):
    days = [r[0] for rows in agents.values() for r in rows]
    return AnalysisWindow(min(days), max(days), "w")


def alive(agents, scale):
    return {
        aid for aid, rows in agents.items()
        if len({period_of(r[0], scale) for r in rows}) >= 2
    }


@SETTINGS
@given(markets(WIDE))
def test_resampled_volumes_equal_per_period_sums_bit_for_bit(market):
    kind, scale, agents, _ = market
    assume(alive(agents, scale))
    series = loaded(agents, kind)
    assert [series_to_rows(s) for s in series] == [
        [(d, o, v, c) for d, o, v, c in agents[s.agent_id]] for s in series
    ]
    window = window_of(agents)
    sliced = [s for s in (slice_window(a, window) for a in series) if s is not None]
    panel = build_panel(sliced, [], window, TimeScale(scale))

    assert set(panel.agents) == alive(agents, scale)
    for aid, channels in panel.agents.items():
        buckets = {}
        for d, _, volume, _ in agents[aid]:
            buckets.setdefault(period_of(d, scale), []).append(volume)
        want = [float(np.sum(list(buckets[p]))) for p in sorted(buckets)]
        assert to_dates(channels[VOLUME].days) == tuple(sorted(buckets))
        assert channels[VOLUME].raw.tolist() == want


@SETTINGS
@given(markets(MODERATE))
def test_engine_matches_oracle_on_random_gaps_and_blank_caps(market):
    kind, scale, agents, indexes = market
    assume(alive(agents, scale))
    window = window_of(agents)
    # a measure with no defined period is an error for the engine and an
    # empty series for the oracle; compare the measures that are defined
    ref = oracle_compute(agents, indexes, kind, scale, window.start, window.end,
                         MEASURES_BY_KIND[kind])
    measures = [m for m in MEASURES_BY_KIND[kind] if ref["perturbation"][m]]
    assert_engine_matches_oracle(agents, indexes, kind, scale, window, measures,
                                 tol=1e-9)


def by_period(days, values) -> dict[int, list[float]]:
    buckets = {}
    for t, v in zip(days.tolist(), values.tolist()):
        buckets.setdefault(t, []).append(v)
    return buckets


@SETTINGS
@given(markets(MODERATE), st.data())
def test_joins_equal_dict_per_period_reference_bit_for_bit(market, data):
    kind, scale, agents, indexes = market
    assume(alive(agents, scale))
    # each index gets its own levels and gaps, so the af3m join is not trivial
    for iid, rows in indexes.items():
        drop = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=len(rows) - 2))
        indexes[iid] = [(d, data.draw(MODERATE)) for j, (d, _) in enumerate(rows)
                        if j not in drop]
    window = window_of(agents)
    ref = oracle_compute(agents, indexes, kind, scale, window.start, window.end,
                         MEASURES_BY_KIND[kind])
    means = []
    real_system_mean = measures._system_mean

    def recorded(measure, days, values):
        out = real_system_mean(measure, days, values)
        means.append(((days, values), out))
        return out

    with mock.patch.object(measures, "_system_mean", recorded):
        panel, ws = engine_case(
            plain_to_agents(agents, kind), plain_to_indexes(indexes), window, scale,
            [m for m in MEASURES_BY_KIND[kind] if ref["perturbation"][m]],
        )

    for (agent_days, agent_values), out in means:
        buckets = by_period(agent_days, agent_values)
        assert out.days.tolist() == sorted(buckets)
        assert out.values.tolist() == [math.fsum(buckets[t]) / len(buckets[t])
                                       for t in sorted(buckets)]

    if "af3m" in ws.perturbations:
        diffs = [by_period(index.days[1:], np.abs(np.diff(index.values)))
                 for index in (panel.indexes[i] for i in ("NASDAQ", "DJI", "SPX"))]
        common = sorted(set(diffs[0]) & set(diffs[1]) & set(diffs[2]))
        p = ws.perturbations["af3m"]
        assert p.days.tolist() == common
        assert p.values.tolist() == [math.fsum(d[t][0] for d in diffs) / 3.0
                                     for t in common]

    for m, per_agent in ws.results.items():
        p = ws.perturbations[m]
        pmap = dict(zip(p.days.tolist(), p.values.tolist()))
        for aid, s in ws.satisfactions.items():
            joined = [(t, sv * pmap[t]) for t, sv in zip(s.days.tolist(), s.values.tolist())
                      if t in pmap]
            if not joined:
                assert aid not in per_agent
                continue
            result = per_agent[aid]
            instants = [v for _, v in joined]
            assert result.days.tolist() == [t for t, _ in joined]
            assert result.instants.tolist() == instants
            assert result.n_used == len(instants)
            assert result.global_a == math.fsum(instants) / len(instants)


# pow(d, 2) != d * d for this double with glibc's libm: a sum of squares
# taken with `*` or np.square changes the last bit of the r below
POW_NOT_MUL = 7.2249061795510094
# ties, signed zeros, that double and values whose plain sum is not their
# fsum, next to arbitrary values; none so small that a product of two sums
# of squares underflows
REPORT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16,
                     POW_NOT_MUL, -POW_NOT_MUL]),
    st.floats(-1e6, 1e6, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) > 1e-50),
)
REPORT_IDS = [f"a{k:02d}" for k in range(16)]


def report_case(window, measure, scale, agents):
    ids = sorted(agents)
    a = [agents[aid] for aid in ids]
    return (window, measure, scale, ids, a, [fmt(v) for v in a], [1] * len(ids))


def positive_zeros(a):
    """The positions of 0.0 (not -0.0) in ``a``."""
    return [k for k, v in enumerate(a) if v == 0.0 and math.copysign(1.0, v) > 0]


def repeated(draw, cases, window, measure, scale):
    """A case at (window, measure, scale) over the agents and A of a case
    drawn so far, of either window: sharing its lists, as
    ``pipeline._case_list`` gives an alias's cases its first scale's, or
    with one 0.0 of the A turned into -0.0."""
    case = draw(st.sampled_from(cases))
    if (zeros := positive_zeros(case[4])) and draw(st.booleans()):
        a = list(case[4])
        a[draw(st.sampled_from(zeros))] = -0.0
        return report_case(window, measure, scale, dict(zip(case[3], a)))
    return (window, measure, scale, *case[3:])


def with_repeat(case, measure, scale, window=None, flip=False):
    """``case`` and a copy of it at (measure, scale), in ``window`` (default:
    the case's): sharing its lists, or with its first 0.0 of A turned into
    -0.0 when ``flip``."""
    copy = (window or case[0], measure, scale, *case[3:])
    if flip:
        a = list(case[4])
        a[positive_zeros(a)[0]] = -0.0
        copy = report_case(copy[0], measure, scale, dict(zip(case[3], a)))
    return sorted([case, copy], key=lambda c: c[:3])


@st.composite
def report_inputs(draw):
    """(cases, perf_variables) as ``pipeline.execute`` hands them over: cases
    sorted by (window, measure, scale), each over agents in id order, some
    without performance in the window and some variables never defined.
    Some cases repeat the agents and A of an earlier one (``repeated``)."""
    cases = []
    perf_variables = {}
    for window in ("2014", "2015")[: draw(st.integers(1, 2))]:
        undefined = draw(st.sets(st.sampled_from(PERF_VARIABLES)))
        for aid in sorted(draw(st.sets(st.sampled_from(REPORT_IDS)))):
            perf_variables[(window, aid)] = {
                name: None if name in undefined else draw(st.one_of(st.none(), REPORT_VALUES))
                for name in PERF_VARIABLES
            }
        keys = sorted(draw(st.sets(st.tuples(st.sampled_from(["afp", "afv"]), st.integers(0, 2)),
                                   min_size=1, max_size=3)))
        for measure, scale in keys:
            if cases and draw(st.booleans()):
                cases.append(repeated(draw, cases, window, measure, scale))
            else:
                agents = draw(st.dictionaries(st.sampled_from(REPORT_IDS), REPORT_VALUES))
                cases.append(report_case(window, measure, scale, agents))
    return sorted(cases, key=lambda case: case[:3]), perf_variables


def edge_inputs():
    """One case of 15 agents: the A column has mean 0 and deviations
    +-POW_NOT_MUL, the first bin by A holds 0.1, 0.2 and 0.3 of ``pr_mea``
    (whose plain sum is not their fsum), and two performance columns are
    constant, one of them at -0.0."""
    ids = REPORT_IDS[:15]
    a = dict(zip(ids, [POW_NOT_MUL, -POW_NOT_MUL, 0.0, -0.0] + [0.0] * 11))
    pr_mea = [0.5, 0.1, 0.2, 0.3] + [float(k * k) for k in range(11)]
    perf = {
        ("2014", aid): {**dict.fromkeys(PERF_VARIABLES), "age_days": -0.0,
                        "pr_mea": v, "pr_std": 3.0}
        for aid, v in zip(ids, pr_mea)
    }
    return [report_case("2014", "afp", 0, a)], perf


def signed_zero_inputs(zeros, sign):
    """One case of 15 agents whose A and ``pr_mea`` are both ``zeros`` (-0.0
    and 0.0, in id order) followed by 1, 2, ... 13 times ``sign``: binned by
    either column, three to a bin, the lowest bin's two lowest values
    (``sign`` 1) or the highest bin's two highest values (``sign`` -1) are
    the two zeros, ranked in id order."""
    ids = REPORT_IDS[:15]
    values = [*zeros, *(sign * float(k) for k in range(1, 14))]
    perf = {("2014", aid): {**dict.fromkeys(PERF_VARIABLES), "pr_mea": v}
            for aid, v in zip(ids, values)}
    return [report_case("2014", "afp", 0, dict(zip(ids, values)))], perf


def repeated_report_inputs(window="2014", flip=False):
    """A case whose A and ``pr_mea`` are 0.0, 0.0, 1, 2, ... 13 and a copy at
    (afv, 1) in ``window``, its first 0.0 of A turned into -0.0 when ``flip``
    (the lowest bin by ``pr_mea`` then has the A minimum "-0"); window
    2015's performance values are 2014's negated, so its bins and r differ."""
    cases, perf = signed_zero_inputs((0.0, 0.0), 1)
    perf.update({("2015", aid): {name: v if v is None else -v for name, v in values.items()}
                 for (_, aid), values in list(perf.items())})
    return with_repeat(cases[0], "afv", 1, window, flip), perf


def two_agent_inputs():
    """One case of 2 agents whose A (0.1, 0.2) and ``pr_mea`` (0.3, 0.4) have
    an r of 1 that the reference rounds to 1.0000000000000002."""
    ids = REPORT_IDS[:2]
    perf = {("2014", aid): {**dict.fromkeys(PERF_VARIABLES), "pr_mea": v}
            for aid, v in zip(ids, (0.3, 0.4))}
    return [report_case("2014", "afp", 0, dict(zip(ids, (0.1, 0.2))))], perf


def clamped(bins: str, correlations: str) -> tuple[str, str]:
    """The reference's texts with the two range rules the pipeline adds: each
    r clamped to [-1, 1], and each bin mean to its row's [min, max]."""
    def rows(text, clamp):
        header, *lines = text.splitlines()
        return "".join(line + "\n" for line in [header, *map(clamp, lines)])

    def clamp_mean(line):
        *head, lo, mean, hi = line.split(",")
        return ",".join([*head, lo, fmt(min(max(float(mean), float(lo)), float(hi))), hi])

    def clamp_r(line):
        *head, r, n = line.split(",")
        return ",".join([*head, r and fmt(max(min(float(r), 1.0), -1.0)), n])

    return rows(bins, clamp_mean), rows(correlations, clamp_r)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(report_inputs())
@example(edge_inputs())
@example(two_agent_inputs())
@example(signed_zero_inputs((-0.0, 0.0), 1))
@example(signed_zero_inputs((0.0, -0.0), 1))
@example(signed_zero_inputs((-0.0, 0.0), -1))
@example(signed_zero_inputs((0.0, -0.0), -1))
@example(repeated_report_inputs())
@example(repeated_report_inputs(flip=True))
@example(repeated_report_inputs(window="2015"))
def test_bins_and_correlations_equal_per_case_reference_bit_for_bit(inputs):
    cases, perf_variables = inputs
    tables = perf_tables(perf_variables, [case[0] for case in cases])
    bins = "".join(_render_bins(cases, tables))
    correlations = "".join(_render_correlations(cases, tables))
    assert (bins, correlations) == clamped(*render_bins_and_correlations(cases, perf_variables))


# A values as the measures give them, in [0, 1], next to repeats, signed
# zeros and a few negatives; none so small that a bin width underflows
A_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    st.floats(-1.0, 1.0, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) > 1e-50),
)


@st.composite
def distribution_inputs(draw):
    """(cases, top ids by window, n_hist_bins): cases over 1-16 agents, some
    single-valued, some repeating the agents and A of an earlier one
    (``repeated``), and top lists naming no agent, some or all of them."""
    cases = []
    top_by_window = {}
    for window in ("2014", "2015")[: draw(st.integers(1, 2))]:
        top_by_window[window] = draw(st.one_of(
            st.just(frozenset()),
            st.frozensets(st.sampled_from(REPORT_IDS)),
            st.just(frozenset(REPORT_IDS)),
        ))
        keys = sorted(draw(st.sets(st.tuples(st.sampled_from(["afp", "afv"]), st.integers(0, 2)),
                                   min_size=1, max_size=3)))
        for measure, scale in keys:
            if cases and draw(st.booleans()):
                cases.append(repeated(draw, cases, window, measure, scale))
            else:
                agents = draw(st.one_of(
                    st.dictionaries(st.sampled_from(REPORT_IDS), A_VALUES, min_size=1),
                    st.builds(dict.fromkeys, st.sets(st.sampled_from(REPORT_IDS), min_size=1),
                              A_VALUES),
                ))
                cases.append(report_case(window, measure, scale, agents))
    cases.sort(key=lambda case: case[:3])
    return cases, top_by_window, draw(st.sampled_from([1, 7, 50]))


def repeated_distribution_inputs(window="2014", flip=False):
    """A case whose A peaks at 0.0 and a copy at (afv, 1) in ``window``, that
    0.0 turned into -0.0 (the last edge's text "-0") when ``flip``; each
    window's top list names another agent."""
    case = report_case("2014", "afp", 0, {"a00": -1.0, "a01": -0.5, "a02": 0.0})
    top = {"2014": frozenset(["a00"]), "2015": frozenset(["a01"])}
    return with_repeat(case, "afv", 1, window, flip), top, 7


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(distribution_inputs())
@example(([report_case("2014", "afp", 0, {"a00": -0.0, "a01": 0.0, "a02": -0.0})],
          {"2014": frozenset(["a01"])}, 7))
@example(repeated_distribution_inputs())
@example(repeated_distribution_inputs(flip=True))
@example(repeated_distribution_inputs(window="2015"))
def test_distributions_equal_per_case_reference_bit_for_bit(inputs):
    cases, top_by_window, n_bins = inputs
    assert ("".join(_render_distributions(cases, top_by_window, n_bins))
            == "".join(reference_distributions(cases, top_by_window, n_bins)))
