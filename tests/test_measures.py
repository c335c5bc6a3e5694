import math
import os
import re
import sys
from functools import partial

import numpy as np
import pytest

import antifrag
from antifrag import fixture as fixt
from antifrag.errors import ComputeError
from antifrag.ingestion import AnalysisWindow, to_dates
from antifrag.measures import (
    MEASURES_BY_KIND,
    PerturbationSeries,
    Scores,
    WindowScaleResults,
    antifragility_scores,
    check_bounds,
    compute_measures,
    perturb_marketcap,
    perturb_normalized_price,
    perturb_price,
    perturb_three_indexes,
    perturb_vix,
    perturb_volume,
    satisfaction_table,
)
from antifrag.resampling import PRICE, Channel, Ragged, TimeScale, build_panel

from conftest import (
    assert_engine_matches_oracle,
    day,
    engine_case,
    make_agent,
    plain_to_indexes,
    series_to_rows,
)

WINDOW = AnalysisWindow(day(0), day(60), "w")


def panel_of(agent_rows: dict, kind="stock", indexes=None, scale=TimeScale.DAILY):
    agents = [make_agent(aid, kind, rows) for aid, rows in sorted(agent_rows.items())]
    return build_panel(agents, plain_to_indexes(indexes or {}), WINDOW, scale)


def sats(panel):
    return satisfaction_table(panel.channels[PRICE])


def ordinals(*dates):
    return np.array([d.toordinal() for d in dates])


def test_satisfaction_exact_values():
    # raw opens 10,20,15 normalize to 0,1,0.5
    panel = panel_of({"X": [(day(i), p, 1) for i, p in enumerate([10, 20, 15])]})
    s = sats(panel)
    assert to_dates(s.days) == (day(1), day(2))
    assert s.values.tolist() == [1.0, -0.5]


def test_satisfaction_constant_price_is_zero():
    panel = panel_of({"X": [(day(i), 7, 1) for i in range(3)]})
    assert sats(panel).values.tolist() == [0.0, 0.0]


def test_satisfaction_from_prevalidated_series():
    prices = Channel(
        np.array([0, 3]),
        ordinals(day(0), day(1), day(2)),
        np.array([0.2, 0.2, 0.9]),
        np.array([0.2, 0.2, 0.9]),
    )
    s = satisfaction_table(prices)
    assert s.values[0] == 0.0
    assert s.values[1] == pytest.approx(0.7, abs=1e-15)


def test_perturb_price_stock_single_agent():
    panel = panel_of({"X": [(day(i), p, 1) for i, p in enumerate([10, 20, 20])]})
    p = perturb_price(panel)
    assert p.periods == (day(1), day(2))
    assert p.values.tolist() == [1.0, 0.0]


def test_perturb_price_stock_two_agent_mean():
    panel = panel_of({
        "A": [(day(i), p, 1) for i, p in enumerate([10, 12, 20])],
        "B": [(day(i), p, 1) for i, p in enumerate([10, 14, 20])],
    })
    p = perturb_price(panel)
    assert p.values[0] == pytest.approx(0.3, abs=1e-15)
    assert p.values[1] == pytest.approx(0.7, abs=1e-15)


def test_perturb_price_divides_by_defined_agents_only():
    # B misses day 2, so its difference spans day 1 -> day 3 and only A
    # contributes at day 2
    panel = panel_of({
        "A": [(day(i), p, 1) for i, p in enumerate([10, 20, 10, 20])],
        "B": [(day(0), 10, 1), (day(1), 20, 1), (day(3), 15, 1)],
    })
    p = perturb_price(panel)
    assert p.periods == (day(1), day(2), day(3))
    assert p.values.tolist() == [1.0, 1.0, 0.75]


def test_perturb_price_crypto_normalizes_system_series():
    # raw diffs: A = 4,8  B = 2,2  -> means 3,5 -> normalized 0,1
    panel = panel_of({
        "A": [(day(i), p, 1, 100) for i, p in enumerate([10, 14, 22])],
        "B": [(day(i), p, 1, 100) for i, p in enumerate([50, 52, 54])],
    }, kind="crypto")
    p = perturb_price(panel)
    assert p.values.tolist() == [0.0, 1.0]


def test_perturb_volume_stock_extreme():
    panel = panel_of({"X": [(day(0), 10, 1), (day(1), 20, 2)]})
    p = perturb_volume(sats(panel), panel)
    assert p.periods == (day(1),)
    assert p.values.tolist() == [1.0]


def test_perturb_volume_stock_cancellation():
    # satisfaction +0.5 at each step while normalized volume falls by 0.5
    panel = panel_of({"X": [(day(0), 10, 2), (day(1), 15, 1), (day(2), 20, 0)]})
    p = perturb_volume(sats(panel), panel)
    assert p.values.tolist() == [0.0, 0.0]


def test_perturb_volume_crypto_constant_is_zero():
    panel = panel_of({"X": [(day(i), 10 + i, 5, 100) for i in range(3)]}, kind="crypto")
    assert perturb_volume(sats(panel), panel).values.tolist() == [0.0, 0.0]


def test_perturb_volume_crypto_full_swing():
    panel = panel_of({"X": [(day(0), 10, 1, 100), (day(1), 11, 3, 100)]}, kind="crypto")
    assert perturb_volume(sats(panel), panel).values.tolist() == [1.0]


def test_perturb_marketcap_exact():
    rows = [(day(0), 10, 1, 100), (day(1), 11, 1, 200), (day(2), 12, 1, 150)]
    panel = panel_of({"X": rows}, kind="crypto")
    p = perturb_marketcap(panel)
    assert p.periods == (day(1), day(2))
    assert p.values.tolist() == [1.0, 0.5]


def test_perturb_marketcap_diffs_across_gap():
    rows = [(day(0), 10, 1, 100), (day(1), 11, 1, 200),
            (day(2), 12, 1, None), (day(3), 13, 1, 150)]
    panel = panel_of({"X": rows}, kind="crypto")
    p = perturb_marketcap(panel)
    assert p.periods == (day(1), day(3))
    assert p.values.tolist() == [1.0, 0.5]


def test_perturb_marketcap_skips_agents_without_two_caps():
    # A and C have no cap or one, around B's two, so the cap table has empty
    # and one-row segments on both sides of the only differenced pair
    caps = {"A": [None, None, None], "B": [None, 100, 300], "C": [None, 50, None]}
    panel = panel_of({aid: [(day(i), 10 + i, 1, c) for i, c in enumerate(cs)]
                      for aid, cs in caps.items()}, kind="crypto")
    assert sorted(panel.agents["A"]) == ["price", "volume"]
    assert panel.agents["C"]["market_cap"].values.tolist() == [0.5]
    p = perturb_marketcap(panel)
    assert p.periods == (day(2),)
    assert p.values.tolist() == [1.0]


@pytest.mark.parametrize("caps", [[None, None, None], [100, None, None]])
def test_marketcap_needs_one_agent_with_two_caps(caps):
    panel = panel_of({aid: [(day(i), 10 + i, 1, c) for i, c in enumerate(caps)]
                      for aid in ("X", "Y")}, kind="crypto")
    with pytest.raises(ComputeError, match="afm: no agent defined at any period"):
        compute_measures(panel, ["afm"])


def test_perturb_normalized_price_lags_satisfaction():
    # normalized prices 0, 0.4, 1, 0.2 -> S = 0.4, 0.6, -0.8
    panel = panel_of({"X": [(day(i), p, 1, 100) for i, p in enumerate([10, 14, 20, 12])]},
                     kind="crypto")
    p = perturb_normalized_price(sats(panel))
    assert p.periods == (day(2), day(3))
    assert p.values[0] == pytest.approx(0.4, abs=1e-15)
    assert p.values[1] == pytest.approx(0.6, abs=1e-15)


def test_perturb_normalized_price_zero_for_constant():
    panel = panel_of({"X": [(day(i), 9, 1, 100) for i in range(4)]}, kind="crypto")
    assert perturb_normalized_price(sats(panel)).values.tolist() == [0.0, 0.0]


def test_perturb_vix_is_level_not_difference():
    indexes = {"VIX": [(day(i), v) for i, v in enumerate([10, 30, 20])]}
    panel = panel_of({"X": [(day(i), 10 + i, 1) for i in range(3)]}, indexes=indexes)
    p = perturb_vix(panel)
    assert p.periods == (day(0), day(1), day(2))
    assert p.values.tolist() == [0.0, 1.0, 0.5]


def test_constant_vix_gives_half_mean_satisfaction():
    indexes = {"VIX": [(day(i), 15) for i in range(4)]}
    rows = [(day(i), p, 1) for i, p in enumerate([10, 18, 12, 20])]
    panel = panel_of({"X": rows}, indexes=indexes)
    s = sats(panel)
    result = antifragility_scores(s, perturb_vix(panel))
    assert result.global_a[0] == pytest.approx(
        0.5 * math.fsum(s.values.tolist()) / len(s.values), abs=1e-15
    )


def test_vix_missing_period_excluded_from_join():
    indexes = {"VIX": [(day(0), 10), (day(2), 30)]}
    panel = panel_of({"X": [(day(i), 10 + i, 1) for i in range(3)]}, indexes=indexes)
    result = antifragility_scores(sats(panel), perturb_vix(panel))
    assert to_dates(result.days) == (day(2),)
    assert result.counts.tolist() == [1]


def test_missing_vix_data_is_an_error():
    panel = panel_of({"X": [(day(i), 10 + i, 1) for i in range(3)]})
    with pytest.raises(ComputeError, match="afx"):
        perturb_vix(panel)


def test_perturb_three_indexes_constant_is_zero():
    indexes = {iid: [(day(i), 100) for i in range(3)] for iid in ("NASDAQ", "DJI", "SPX")}
    panel = panel_of({"X": [(day(i), 10 + i, 1) for i in range(3)]}, indexes=indexes)
    assert perturb_three_indexes(panel).values.tolist() == [0.0, 0.0]


def test_perturb_three_indexes_full_swing():
    indexes = {
        "NASDAQ": [(day(0), 10), (day(1), 20)],
        "DJI": [(day(0), 5), (day(1), 9)],
        "SPX": [(day(0), 100), (day(1), 200)],
    }
    panel = panel_of({"X": [(day(0), 10, 1), (day(1), 11, 1)]}, indexes=indexes)
    p = perturb_three_indexes(panel)
    assert p.periods == (day(1),)
    assert p.values.tolist() == [1.0]


def test_perturb_three_indexes_requires_all_three():
    indexes = {"NASDAQ": [(day(0), 10), (day(1), 20)], "DJI": [(day(0), 5), (day(1), 9)]}
    panel = panel_of({"X": [(day(0), 10, 1), (day(1), 11, 1)]}, indexes=indexes)
    with pytest.raises(ComputeError, match="SPX"):
        perturb_three_indexes(panel)


def test_antifragility_exact_product_and_mean():
    s = Ragged(np.array([0, 2]), ordinals(day(1), day(2)), np.array([1.0, -0.5]))
    p = PerturbationSeries(ordinals(day(1), day(2)), np.array([0.5, 0.5]))
    result = antifragility_scores(s, p)
    assert result.values.tolist() == [0.5, -0.25]
    assert result.global_a.tolist() == [0.125]
    assert result.counts.tolist() == [2]


def test_antifragility_zero_satisfaction_is_exactly_zero():
    s = Ragged(np.array([0, 2]), ordinals(day(1), day(2)), np.array([0.0, 0.0]))
    p = PerturbationSeries(ordinals(day(1), day(2)), np.array([0.3, 0.9]))
    result = antifragility_scores(s, p)
    assert result.global_a.tolist() == [0.0]


def test_antifragility_empty_intersection_returns_none():
    s = Ragged(np.array([0, 1]), ordinals(day(1)), np.array([1.0]))
    p = PerturbationSeries(ordinals(day(2)), np.array([0.5]))
    result = antifragility_scores(s, p)
    assert result.counts.tolist() == [0]
    assert len(result.values) == 0
    assert math.isnan(result.global_a[0])


def bounds_checked(sat=0.5, p=0.5, instant=0.5, global_a=0.5):
    """check_bounds over hand-built tables: agent A, one period, measure afp."""
    one, days = np.array([0, 1]), ordinals(day(1))
    check_bounds(WindowScaleResults(
        ("A",), Ragged(one, days, np.array([sat])),
        {"afp": PerturbationSeries(days, np.array([p]))},
        {"afp": Scores(one, days, np.array([instant]), np.array([global_a]))},
    ))


def three_indexes_on_disjoint_days():
    indexes = {iid: [(day(3 * k + i), 10 + i) for i in range(3)]
               for k, iid in enumerate(("NASDAQ", "DJI", "SPX"))}
    perturb_three_indexes(panel_of({"X": [(day(i), 10 + i, 1) for i in range(9)]},
                                   indexes=indexes))


@pytest.mark.parametrize("build, problem", [
    (three_indexes_on_disjoint_days, "af3m: indexes share no differenced period"),
    (partial(bounds_checked, sat=1.5), "satisfaction out of [-1, 1] for agent A"),
    (partial(bounds_checked, p=1.5), "perturbation afp out of [0, 1]"),
    (partial(bounds_checked, instant=-1.5, global_a=-1.5),
     "instant antifragility out of [-1, 1]: afp/A"),
    (partial(bounds_checked, global_a=0.75), "global antifragility exceeds instants: afp/A"),
], ids=["af3m-disjoint", "satisfaction", "perturbation", "instant", "global"])
def test_guards_raise_their_errors(build, problem):
    bounds_checked()  # the hand-built tables pass as they are
    with pytest.raises(ComputeError, match=f"^{re.escape(problem)}$"):
        build()


def test_compute_measures_rejects_wrong_kind():
    panel = panel_of({"X": [(day(i), 10 + i, 1, 100) for i in range(3)]}, kind="crypto")
    with pytest.raises(ComputeError, match="afx invalid for crypto"):
        compute_measures(panel, ["afx"])


def test_results_independent_of_agent_input_order():
    rows = {
        "A": [(day(i), 10 + i + (i % 3), 100 + i) for i in range(12)],
        "B": [(day(i), 30 - i, 200 + 2 * i) for i in range(12)],
        "C": [(day(2 * i), 5 + (i % 4), 50 + 3 * i) for i in range(6)],
    }
    agents = [make_agent(aid, "crypto",
                         [(d, p, v, 1000 + p) for d, p, v in rows[aid]])
              for aid in rows]
    forward = build_panel(agents, [], WINDOW, TimeScale.DAILY)
    backward = build_panel(list(reversed(agents)), [], WINDOW, TimeScale.DAILY)
    a = compute_measures(forward, ["afp", "afv", "afn", "afm"])
    b = compute_measures(backward, ["afp", "afv", "afn", "afm"])
    for m in a.perturbations:
        assert a.perturbations[m].periods == b.perturbations[m].periods
        assert a.perturbations[m].values.tolist() == b.perturbations[m].values.tolist()
    for m in a.results:
        for aid in a.results[m]:
            assert a.results[m][aid].global_a == b.results[m][aid].global_a


def test_system_mean_matches_reversed_summation_order():
    rng = np.random.default_rng(11)
    rows = {
        f"A{k}": [(day(i), float(p), 1.0)
                  for i, p in enumerate(50 * np.exp(np.cumsum(rng.normal(0, 0.1, 20))))]
        for k in range(7)
    }
    panel = panel_of(rows)
    p = perturb_price(panel)
    diffs = {
        aid: dict(zip(panel.agents[aid]["price"].days[1:].tolist(),
                      np.abs(np.diff(panel.agents[aid]["price"].values)).tolist()))
        for aid in panel.agents
    }
    for t, value in zip(p.days.tolist(), p.values.tolist()):
        contribs = [diffs[aid][t] for aid in sorted(diffs, reverse=True) if t in diffs[aid]]
        assert value == pytest.approx(sum(contribs) / len(contribs), abs=1e-12)


def test_stock_fixture_matches_oracle_at_every_scale():
    agents = {s.agent_id: series_to_rows(s) for s in fixt.stock_agents()}
    indexes = {i.index_id: list(i.values) for i in fixt.stock_indexes()}
    for scale in (0, 1, 2):
        assert_engine_matches_oracle(
            agents, indexes, "stock", scale, fixt.WINDOW,
            ("af3m", "afp", "afv", "afx"), tol=1e-12,
        )


def test_crypto_fixture_matches_oracle_at_every_scale():
    agents = {s.agent_id: series_to_rows(s) for s in fixt.crypto_agents()}
    for scale in (0, 1, 2):
        assert_engine_matches_oracle(
            agents, {}, "crypto", scale, fixt.WINDOW,
            ("afm", "afn", "afp", "afv"), tol=1e-12,
        )


def test_crypto_fixture_monthly_is_three_agents_five_periods():
    agents = [s for s in fixt.crypto_agents()]
    panel, ws = engine_case(agents, [], fixt.WINDOW, 2, ("afp",))
    assert len(panel.agents) == 3
    for channels in panel.agents.values():
        assert len(channels["price"]) == 5


def calls_into(packages, fn) -> list[str]:
    """The names of the Python and C functions of ``packages`` (modules) that
    ``fn()`` calls, counted with ``sys.setprofile``; a C method of an ndarray
    counts as numpy's."""
    dirs = tuple(os.path.dirname(p.__file__) for p in packages)
    names = tuple(p.__name__ for p in packages)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(dirs):
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and (
            (getattr(arg, "__module__", None) or "").startswith(names)
            or isinstance(getattr(arg, "__self__", None), np.ndarray)
        ):
            calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", ["stock", "crypto"])
def test_case_makes_the_same_calls_for_any_agent_count(kind):
    # every agent has the same dates, gaps and blank caps; only values differ
    kept = [i for i in range(60) if i % 7 != 3]
    indexes = {iid: [(day(i), 10 + (i * 3) % 7) for i in range(60)]
               for iid in ("VIX", "NASDAQ", "DJI", "SPX")} if kind == "stock" else {}

    def case(n_agents):
        rows = {
            f"A{k:02d}": [(day(i), 10 + k + (i * 5) % 11, 1 + (i * k) % 13,
                           None if kind == "stock" or i % 9 == 0 else 100 + i * k)
                          for i in kept]
            for k in range(n_agents)
        }
        agents = [make_agent(aid, kind, r) for aid, r in rows.items()]
        index_series = plain_to_indexes(indexes)
        return lambda: compute_measures(
            build_panel(agents, index_series, WINDOW, TimeScale.WEEKLY),
            MEASURES_BY_KIND[kind],
        )

    few, many = case(5), case(50)
    few()  # the first run may import numpy submodules
    few, many = calls_into((np, antifrag), few), calls_into((np, antifrag), many)
    assert few == many
    assert len(few) > 50
