import math

import numpy as np
import pytest

from antifrag import fixture as fixt
from antifrag.errors import ComputeError
from antifrag.ingestion import AnalysisWindow, to_dates
from antifrag.measures import (
    PerturbationSeries,
    SatisfactionSeries,
    antifragility,
    compute_measures,
    perturb_marketcap,
    perturb_normalized_price,
    perturb_price,
    perturb_three_indexes,
    perturb_vix,
    perturb_volume_crypto,
    perturb_volume_stock,
    satisfaction,
)
from antifrag.resampling import NormalizedSeries, TimeScale, build_panel

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
    return {aid: satisfaction(aid, panel.agents[aid]["price"]) for aid in panel.agents}


def ordinals(*dates):
    return np.array([d.toordinal() for d in dates])


def test_satisfaction_exact_values():
    # raw opens 10,20,15 normalize to 0,1,0.5
    panel = panel_of({"X": [(day(i), p, 1) for i, p in enumerate([10, 20, 15])]})
    s = satisfaction("X", panel.agents["X"]["price"])
    assert to_dates(s.days) == (day(1), day(2))
    assert s.values.tolist() == [1.0, -0.5]


def test_satisfaction_constant_price_is_zero():
    panel = panel_of({"X": [(day(i), 7, 1) for i in range(3)]})
    assert satisfaction("X", panel.agents["X"]["price"]).values.tolist() == [0.0, 0.0]


def test_satisfaction_from_prevalidated_series():
    series = NormalizedSeries(
        ordinals(day(0), day(1), day(2)),
        np.array([0.2, 0.2, 0.9]),
        np.array([0.2, 0.2, 0.9]),
    )
    s = satisfaction("X", series)
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
    p = perturb_volume_stock(sats(panel), panel)
    assert p.periods == (day(1),)
    assert p.values.tolist() == [1.0]


def test_perturb_volume_stock_cancellation():
    # satisfaction +0.5 at each step while normalized volume falls by 0.5
    panel = panel_of({"X": [(day(0), 10, 2), (day(1), 15, 1), (day(2), 20, 0)]})
    p = perturb_volume_stock(sats(panel), panel)
    assert p.values.tolist() == [0.0, 0.0]


def test_perturb_volume_crypto_constant_is_zero():
    panel = panel_of({"X": [(day(i), 10 + i, 5, 100) for i in range(3)]}, kind="crypto")
    assert perturb_volume_crypto(panel).values.tolist() == [0.0, 0.0]


def test_perturb_volume_crypto_full_swing():
    panel = panel_of({"X": [(day(0), 10, 1, 100), (day(1), 11, 3, 100)]}, kind="crypto")
    assert perturb_volume_crypto(panel).values.tolist() == [1.0]


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


def test_perturb_normalized_price_lags_satisfaction():
    # normalized prices 0, 0.4, 1, 0.2 -> S = 0.4, 0.6, -0.8
    panel = panel_of({"X": [(day(i), p, 1, 100) for i, p in enumerate([10, 14, 20, 12])]},
                     kind="crypto")
    p = perturb_normalized_price(sats(panel), panel)
    assert p.periods == (day(2), day(3))
    assert p.values[0] == pytest.approx(0.4, abs=1e-15)
    assert p.values[1] == pytest.approx(0.6, abs=1e-15)


def test_perturb_normalized_price_zero_for_constant():
    panel = panel_of({"X": [(day(i), 9, 1, 100) for i in range(4)]}, kind="crypto")
    assert perturb_normalized_price(sats(panel), panel).values.tolist() == [0.0, 0.0]


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
    s = sats(panel)["X"]
    result = antifragility(s, perturb_vix(panel))
    assert result.global_a == pytest.approx(
        0.5 * math.fsum(s.values.tolist()) / len(s.values), abs=1e-15
    )


def test_vix_missing_period_excluded_from_join():
    indexes = {"VIX": [(day(0), 10), (day(2), 30)]}
    panel = panel_of({"X": [(day(i), 10 + i, 1) for i in range(3)]}, indexes=indexes)
    result = antifragility(sats(panel)["X"], perturb_vix(panel))
    assert to_dates(result.days) == (day(2),)
    assert result.n_used == 1


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
    s = SatisfactionSeries("X", ordinals(day(1), day(2)), np.array([1.0, -0.5]))
    p = PerturbationSeries("afp", TimeScale.DAILY, ordinals(day(1), day(2)),
                           np.array([0.5, 0.5]))
    result = antifragility(s, p)
    assert result.instants.tolist() == [0.5, -0.25]
    assert result.global_a == 0.125
    assert result.n_used == 2


def test_antifragility_zero_satisfaction_is_exactly_zero():
    s = SatisfactionSeries("X", ordinals(day(1), day(2)), np.array([0.0, 0.0]))
    p = PerturbationSeries("afp", TimeScale.DAILY, ordinals(day(1), day(2)),
                           np.array([0.3, 0.9]))
    result = antifragility(s, p)
    assert result.global_a == 0.0


def test_antifragility_empty_intersection_returns_none():
    s = SatisfactionSeries("X", ordinals(day(1)), np.array([1.0]))
    p = PerturbationSeries("afp", TimeScale.DAILY, ordinals(day(2)), np.array([0.5]))
    assert antifragility(s, p) is None


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
