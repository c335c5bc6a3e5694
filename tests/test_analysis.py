import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antifrag.analysis import (
    distribution,
    pearson,
    quantile_bin_summary,
    top_comparison,
)
from antifrag.errors import ComputeError
from antifrag.pipeline import _render_scatter

from conftest import perf_tables


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    assert pearson([3, 2, 1], [2, 4, 6]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_constant_side_undefined():
    assert pearson([1, 2, 3], [5, 5, 5]) is None


def test_pearson_short_input_undefined():
    assert pearson([1], [2]) is None


def test_pearson_drops_undefined_pairs():
    r = pearson([1, 2, None, 3], [2, 4, 9, 6])
    assert r == pytest.approx(1.0, abs=1e-12)


def test_pearson_survives_an_underflowing_product_of_sums_of_squares():
    # each sum of squares is 5e-321; their product underflows to 0
    assert pearson([1e-160, 0.0], [1e-160, 0.0]) == 1.0
    assert pearson([1e-160, 0.0], [0.0, 1e-160]) == -1.0


def test_pearson_survives_an_overflowing_product_of_sums_of_squares():
    # each sum of squares is 5e199; their product overflows to inf
    assert pearson([1e100, 0.0], [1e100, 0.0]) == 1.0
    assert pearson([1e100, 0.0], [0.0, 1e100]) == -1.0


def test_pearson_symmetry_and_range():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=40).tolist()
    ys = rng.normal(size=40).tolist()
    r = pearson(xs, ys)
    assert -1.0 <= r <= 1.0
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-15)


def entries_of(values):
    return [(f"a{i:03d}", v, float(i)) for i, v in enumerate(values)]


def test_bins_equal_counts_divisible():
    summaries = quantile_bin_summary(entries_of(range(10)), "A", "x")
    assert [s.count for s in summaries] == [2, 2, 2, 2, 2]


def test_bins_remainder_goes_to_lowest():
    summaries = quantile_bin_summary(entries_of(range(11)), "A", "x")
    assert [s.count for s in summaries] == [3, 2, 2, 2, 2]


def test_bins_counts_differ_by_at_most_one_and_partition():
    for n in range(5, 40):
        summaries = quantile_bin_summary(entries_of(range(n)), "A", "x")
        counts = [s.count for s in summaries]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1


def test_bins_self_stat_is_monotone():
    rng = np.random.default_rng(17)
    values = rng.normal(size=37)
    entries = [(f"a{i}", float(v), float(v)) for i, v in enumerate(values)]
    summaries = quantile_bin_summary(entries, "A", "A")
    means = [s.mean for s in summaries]
    assert means == sorted(means)
    assert all(s.min <= s.mean <= s.max for s in summaries)


def test_bins_tie_break_on_agent_id_is_deterministic():
    entries = [(f"a{i}", 1.0, float(i)) for i in range(10)]
    first = quantile_bin_summary(entries, "A", "x")
    second = quantile_bin_summary(list(reversed(entries)), "A", "x")
    assert first == second


def test_bins_too_few_agents_raises():
    with pytest.raises(ComputeError, match="at least 5"):
        quantile_bin_summary(entries_of(range(4)), "A", "x")


def test_distribution_constant_values_single_occupied_bin():
    dist = distribution([0.0] * 100, n_bins=50)
    occupied = (dist.densities > 0).sum()
    assert occupied == 1
    integral = float(np.sum(dist.densities * np.diff(dist.edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)
    assert dist.edges[0] == pytest.approx(-1e-9, abs=1e-18)
    assert dist.edges[-1] == pytest.approx(1e-9, abs=1e-18)


def test_distribution_of_adjacent_doubles_is_widened():
    # linspace over [x, next double] repeats edges: widths of 0, nan densities
    x = 0.1
    dist = distribution([x, np.nextafter(x, 1.0)], n_bins=50)
    assert (np.diff(dist.edges) > 0).all()
    assert np.isfinite(dist.densities).all()
    assert (dist.edges[0], dist.edges[-1]) == (x - 1e-9, np.nextafter(x, 1.0) + 1e-9)
    integral = float(np.sum(dist.densities * np.diff(dist.edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)


LARGE = [1e7, 1e8, 1e15, 1e100, -1e100]


@pytest.mark.parametrize("n_bins", [1, 50, 10000])
@pytest.mark.parametrize("values", [[x, x] for x in [-1.0, -0.5, 0.0, 1e-300, 1.0] + LARGE]
                         + [[x, np.nextafter(x, math.inf)] for x in LARGE], ids=repr)
def test_distribution_of_close_values_is_widened(values, n_bins):
    # a widening of 1e-9 is below an ulp of the large values: it would leave
    # their edges repeated; within [-1, 1] it is still exactly 1e-9
    dist = distribution(values, n_bins=n_bins)
    assert (np.diff(dist.edges) > 0).all()
    assert np.isfinite(dist.densities).all()
    integral = float(np.sum(dist.densities * np.diff(dist.edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)
    if abs(values[0]) <= 1:
        assert (dist.edges[0], dist.edges[-1]) == (values[0] - 1e-9, values[1] + 1e-9)
    else:
        assert dist.edges[0] <= values[0] and dist.edges[-1] >= values[1]


def test_distribution_uniform_grid_has_unit_density():
    values = np.linspace(0.0, 1.0, 2001)
    dist = distribution(values, n_bins=50)
    assert dist.densities == pytest.approx(np.ones(50), rel=5e-2)


def test_distribution_integral_is_one():
    rng = np.random.default_rng(23)
    for _ in range(10):
        values = rng.normal(size=rng.integers(1, 400))
        dist = distribution(values, n_bins=50)
        integral = float(np.sum(dist.densities * np.diff(dist.edges)))
        assert integral == pytest.approx(1.0, abs=1e-9)


def test_distribution_subset_reuses_edges():
    rng = np.random.default_rng(29)
    values = rng.normal(size=200)
    base = distribution(values, n_bins=40)
    sub = distribution(values[:50], edges=base.edges)
    assert sub.edges.tolist() == base.edges.tolist()
    integral = float(np.sum(sub.densities * np.diff(sub.edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)
    assert sub.sample_count == 50


def test_distribution_empty_raises():
    with pytest.raises(ComputeError, match="no values"):
        distribution([])


# repeats and subnormals next to any moderate double
RANGE_VALUES = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 5e-324, 1e-323]),
                         st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(RANGE_VALUES, min_size=2, max_size=40), RANGE_VALUES, RANGE_VALUES,
       st.floats(-1e3, 1e3).filter(lambda k: abs(k) >= 1e-3), st.sampled_from([1, 7, 50]))
@example([0.1, 0.2], 0.3, 0.4, 1.0, 50)  # two points
@example([0.1, 0.2, 0.3, 0.7], 0.0, 0.0, 1.0, 50)  # proportional columns
@example([0.1] * 15, 0.0, 0.0, 1.0, 50)  # bins of three equal values
@example([0.0, 5e-324], 0.0, 0.0, 1.0, 1)  # a subnormal range
def test_report_values_stay_in_range(values, c, d, factor, n_bins):
    # exact r is +-1 for two points and for proportional columns; rounding
    # must not pass it, nor take a mean of equal values past them
    for r in (pearson(values[:2], [c, d]), pearson(values, [factor * v for v in values])):
        assert r is None or -1.0 <= r <= 1.0
    if len(values) >= 5:
        entries = [(f"a{i:02d}", float(i), v) for i, v in enumerate(values)]
        assert all(s.min <= s.mean <= s.max for s in quantile_bin_summary(entries, "A", "x"))
    assert np.isfinite(distribution(values, n_bins=n_bins).densities).all()


def test_top_comparison_single_case():
    cases = {("2014", "afp", 0): {"A": 0.1, "B": 0.3, "C": -0.1}}
    stats = top_comparison(cases, {"2014": frozenset({"B"})})
    assert stats.cases_total == 1
    assert stats.cases_top_greater == 1
    assert stats.fraction_top_greater == 1.0
    assert stats.sum_diff_when_greater == pytest.approx(0.2, abs=1e-15)
    assert stats.sum_diff_otherwise == 0.0
    assert stats.ratio is None


def test_top_comparison_top_equals_population_gives_zero_diffs():
    rng = np.random.default_rng(31)
    ids = [f"a{i}" for i in range(20)]
    cases = {
        ("2014", m, s): {aid: float(rng.normal()) for aid in ids}
        for m in ("afp", "afv")
        for s in (0, 1, 2)
    }
    stats = top_comparison(cases, {"2014": frozenset(ids)})
    assert stats.cases_total == 6
    assert stats.cases_top_greater == 0
    assert stats.fraction_top_greater == 0.0
    assert stats.sum_diff_when_greater == 0.0
    assert stats.sum_diff_otherwise == 0.0
    assert stats.ratio is None


def test_top_comparison_skips_cases_without_alive_top(caplog):
    cases = {
        ("2014", "afp", 0): {"A": 0.1, "B": 0.2},
        ("2015", "afp", 0): {"C": 0.5},
    }
    tops = {"2014": frozenset({"B"}), "2015": frozenset({"Z"})}
    with caplog.at_level("WARNING"):
        stats = top_comparison(cases, tops)
    assert stats.cases_total == 1
    assert any("2015" in r.message for r in caplog.records)


def test_top_comparison_no_alive_top_anywhere_raises():
    cases = {("2014", "afp", 0): {"A": 0.1}}
    with pytest.raises(ComputeError, match="no case"):
        top_comparison(cases, {"2014": frozenset({"Z"})})


def test_top_comparison_ratio():
    cases = {
        ("2014", "afp", 0): {"A": 0.0, "B": 0.4},   # top mean 0.4, all 0.2
        ("2014", "afv", 0): {"A": 0.4, "B": 0.0},   # top mean 0.0, all 0.2
        ("2014", "afn", 0): {"A": 0.0, "B": 0.2},   # top mean 0.2, all 0.1
    }
    stats = top_comparison(cases, {"2014": frozenset({"B"})})
    assert stats.cases_total == 3
    assert stats.cases_top_greater == 2
    assert stats.fraction_top_greater == pytest.approx(2 / 3, abs=1e-15)
    assert stats.sum_diff_when_greater == pytest.approx(0.3, abs=1e-15)
    assert stats.sum_diff_otherwise == pytest.approx(0.2, abs=1e-15)
    assert stats.ratio == pytest.approx(1.5, abs=1e-12)


def scatter_lines(cases, perf) -> list[str]:
    """scatter.csv rows of {case: {agent: A}} and {(window, agent): {name:
    value}}; each case's agents come in id order, as a panel gives them."""
    rows = []
    for key, values in sorted(cases.items()):
        ids = sorted(values)
        a = [values[aid] for aid in ids]
        rows.append((*key, ids, a, [format(v, ".17g") for v in a], [1] * len(ids)))
    tables = perf_tables(perf, [window for window, _, _ in cases])
    text = "".join(_render_scatter(rows, tables))
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "window,measure,scale,agent_id,A,perf_variable,perf_value"
    return lines[1:]


def test_render_scatter_rows_and_order():
    cases = {("2014", "afp", 0): {"B": 0.2, "A": 0.1}}
    perf = {
        ("2014", "A"): {"pr_mea": 10.0, "vl_mea": 5.0},
        ("2014", "B"): {"pr_mea": 20.0, "vl_mea": None},
    }
    assert scatter_lines(cases, perf) == [
        "2014,afp,0,A,0.10000000000000001,pr_mea,10",
        "2014,afp,0,A,0.10000000000000001,vl_mea,5",
        "2014,afp,0,B,0.20000000000000001,pr_mea,20",
    ]


def test_render_scatter_skips_agents_without_performance():
    cases = {("2014", "afp", 0): {"A": 0.1, "GONE": 0.9}}
    perf = {("2014", "A"): {"pr_mea": 1.0}}
    lines = scatter_lines(cases, perf)
    assert [line.split(",")[3] for line in lines] == ["A"]


def test_render_scatter_sorts_cases_and_variables():
    cases = {
        ("2015", "afp", 0): {"A": 1.0},
        ("2014", "afv", 0): {"A": 2.0},
        ("2014", "afp", 1): {"A": 3.0},
    }
    perf = {
        ("2014", "A"): {"vl_mea": 1.0, "age_days": 2.0},
        ("2015", "A"): {"pr_mea": 3.0},
    }
    assert scatter_lines(cases, perf) == [
        "2014,afp,1,A,3,age_days,2",
        "2014,afp,1,A,3,vl_mea,1",
        "2014,afv,0,A,2,age_days,2",
        "2014,afv,0,A,2,vl_mea,1",
        "2015,afp,0,A,1,pr_mea,3",
    ]


def test_render_scatter_keeps_negative_zero():
    cases = {("2014", "afp", 0): {"A": -0.0}}
    perf = {("2014", "A"): {"pct_dlt_pr": -0.0, "pr_mea": 0.0}}
    assert scatter_lines(cases, perf) == [
        "2014,afp,0,A,-0,pct_dlt_pr,-0",
        "2014,afp,0,A,-0,pr_mea,0",
    ]


def test_render_scatter_integral_float_and_scale_code():
    cases = {("2014", "afm", 2): {"A": 0.1}}
    perf = {("2014", "A"): {"age_days": 1.0, "pr_std": 1e-20}}
    assert scatter_lines(cases, perf) == [
        "2014,afm,2,A,0.10000000000000001,age_days,1",
        "2014,afm,2,A,0.10000000000000001,pr_std,9.9999999999999995e-21",
    ]
