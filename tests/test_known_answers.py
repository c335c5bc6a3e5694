"""Known answers: small stock and crypto trees whose antifragility follows
from the definitions by hand, checked on the antifragility.csv of a real run.

Every other check of A compares the engine with a second reading of the
same definitions (``tests/oracle.py``) or with earlier engine code, so a
slip made in both would pass them. These answers fix the sign and the timing
of the score: satisfaction is p(t) - p(t-1) of the normalized price, and an
agent's A is the mean over periods t of satisfaction times the perturbation
at the same t.

The moving agents' prices normalize to multiples of 1/8 and the
perturbations they are checked against are multiples of 1/16, so each
instant and each mean asserted below is exact in binary; a constant agent's
satisfaction is 0, and so is each of its instants, whatever the perturbation.
"""

import datetime as dt
from pathlib import Path

import pytest

import antifrag.cli as cli
from antifrag.config import MEASURES_BY_KIND

STOCK_DAYS = [dt.date(2015, 1, d) for d in (5, 6, 7, 8, 9, 12)]
# VIX levels normalize to 0, 0.5, 0, 1, 0, 1 over the window ((level - 10) / 16)
STOCK_INDEXES = {
    "vix": [10.0, 18.0, 10.0, 26.0, 10.0, 26.0],
    "nasdaq": [100.0, 104.0, 102.0, 107.0, 101.0, 103.0],
    "dji": [200.0, 198.0, 205.0, 201.0, 204.0, 199.0],
    "spx": [50.0, 51.0, 53.0, 52.0, 55.0, 54.0],
}
STOCK_PRICES = {
    # normalized (p - 10) / 4: 0, 0.5, 0.25, 0.75, 0.5, 1, so satisfaction
    # from the second day is 0.5, -0.25, 0.5, -0.25, 0.5: a step up where
    # VIX is high and a step down where it is at its minimum. Instants 0.25,
    # -0, 0.5, -0, 0.5: A = 1.25 / 5
    "UP": [10.0, 12.0, 11.0, 13.0, 12.0, 14.0],
    # the mirror image: instants -0.25, 0, -0.5, 0, -0.5
    "DOWN": [14.0, 12.0, 13.0, 11.0, 12.0, 10.0],
    # quoted on the third and fourth days only, the fourth at VIX's window
    # maximum: its normalized prices are 0 and 1 (or 1 and 0), so its one
    # satisfaction is +-1, and its one instant +-1 times 1
    "YOUNG_UP": [None, None, 5.0, 7.0, None, None],
    "YOUNG_DOWN": [None, None, 7.0, 5.0, None, None],
    # normalizes to 0.5 throughout: satisfaction 0 at every period
    "FLAT": [20.0] * 6,
}

# two windows, each with one moving agent and the constant one. Every raw
# price change is at most 1, so that afp stays within [0, 1] also
# unnormalized, and the run then reports a wrong A rather than failing
LAG_DAYS = [dt.date(2015, 1, d) for d in range(1, 7)]
NORM_DAYS = [dt.date(2015, 2, d) for d in range(1, 6)]
CRYPTO_PRICES = {
    # normalized (p - 1.25) / 0.5: 0, 1, 0.5, 0.75, 0.5, 0.75, so satisfaction
    # from the second day is 1, -0.5, 0.25, -0.25, 0.25. FLAT's |S| is 0, so
    # afn from the third day is half LAG's |S| one period earlier: 0.5,
    # 0.25, 0.125, 0.125. Instants -0.25, 0.0625, -0.03125, 0.03125: A =
    # -0.1875 / 4. Lagged the other way (|S| one period later, from the
    # second day) the instants are 0.25, -0.0625, 0.03125, -0.03125 and A
    # changes sign
    "LAG": [1.25, 1.75, 1.5, 1.625, 1.5, 1.625] + [None] * 5,
    # raw changes 0.25, 0.75, 0.5, 0.375; with FLAT's zeros the system means
    # are 0.125, 0.375, 0.25, 0.1875, which normalize to 0, 1, 0.5, 0.25.
    # Normalized prices (p - 1.25) / 1: 0, 0.25, 1, 0.5, 0.875, so
    # satisfaction is 0.25, 0.75, -0.5, 0.375. Instants 0, 0.75, -0.25,
    # 0.09375: A = 0.59375 / 4. On the unnormalized means the instants are
    # 0.03125, 0.28125, -0.125, 0.0703125: A = 0.2578125 / 4
    "P": [None] * 6 + [1.25, 1.5, 2.25, 1.75, 2.125],
    "FLAT": [3.0] * 11,
}
# volumes and market caps that move, so that afv and afm are not all zero
CRYPTO_VOLUMES = [1000.0, 3000.0, 2000.0, 2500.0, 1500.0, 1000.0] * 2


def run_tree(root: Path, kind: str, rows: dict[str, list[str]], indexes: dict[str, list[str]],
             windows: str) -> dict[tuple[str, str, str], tuple[str, int]]:
    """Run one tree and read each (agent, measure, window)'s A text and
    n_used from its antifragility.csv. ``rows`` holds each agent's CSV
    lines, header first; ``indexes`` each index file's."""
    (root / "agents").mkdir()
    for aid, lines in rows.items():
        (root / "agents" / f"{aid}.csv").write_text("\n".join(lines) + "\n")
    config = [f"market_kind = {kind}", "data_dir = agents", "output_dir = out",
              f"windows = {windows}", "scales = 0"]
    if indexes:
        (root / "indexes").mkdir()
        for name, lines in indexes.items():
            (root / "indexes" / f"{name}.csv").write_text("\n".join(lines) + "\n")
        config.append("index_dir = indexes")
    (root / "config.cfg").write_text("\n".join(config) + "\n")
    assert cli.main(["run", "--config", str(root / "config.cfg")]) == 0
    header, *lines = (root / "out" / "antifragility.csv").read_text().splitlines()
    assert header == "agent_id,measure,scale,window,global_A,n_used"
    out = {}
    for line in lines:
        aid, measure, scale, window, a, n = line.split(",")
        assert scale == "0"
        out[aid, measure, window] = (a, int(n))
    return out


@pytest.fixture(scope="module")
def stock(tmp_path_factory):
    rows = {aid: ["date,open,volume"]
            + [f"{d},{p!r},1000.0" for d, p in zip(STOCK_DAYS, prices) if p is not None]
            for aid, prices in STOCK_PRICES.items()}
    indexes = {name: ["date,level"] + [f"{d},{v!r}" for d, v in zip(STOCK_DAYS, levels)]
               for name, levels in STOCK_INDEXES.items()}
    return run_tree(tmp_path_factory.mktemp("stock"), "stock", rows, indexes,
                    "w:2015-01-01:2015-01-31")


@pytest.fixture(scope="module")
def crypto(tmp_path_factory):
    rows = {aid: ["date,open,volume,market_cap"]
            + [f"{d},{p!r},{v!r},{v * 10!r}"
               for d, p, v in zip(LAG_DAYS + NORM_DAYS, prices, CRYPTO_VOLUMES) if p is not None]
            for aid, prices in CRYPTO_PRICES.items()}
    return run_tree(tmp_path_factory.mktemp("crypto"), "crypto", rows, {},
                    "lag:2015-01-01:2015-01-31, norm:2015-02-01:2015-02-28")


def test_an_agent_quoted_twice_scores_plus_or_minus_one_at_the_perturbation_peak(stock):
    assert stock["YOUNG_UP", "afx", "w"] == ("1", 1)
    assert stock["YOUNG_DOWN", "afx", "w"] == ("-1", 1)


def test_agents_that_step_with_vix_score_positive_and_against_it_negative(stock):
    assert stock["UP", "afx", "w"] == ("0.25", 5)
    assert stock["DOWN", "afx", "w"] == ("-0.25", 5)


def test_afn_takes_each_agents_satisfaction_one_period_earlier(crypto):
    assert crypto["LAG", "afn", "lag"] == ("-0.046875", 4)


def test_crypto_afp_normalizes_the_system_mean_of_raw_changes(crypto):
    assert crypto["P", "afp", "norm"] == ("0.1484375", 4)


@pytest.mark.parametrize("kind", ["stock", "crypto"])
def test_a_constant_agent_scores_zero_under_every_measure(request, kind):
    scores = request.getfixturevalue(kind)
    windows = {w for _, _, w in scores}
    flat = {(m, w): a for (aid, m, w), (a, _) in scores.items() if aid == "FLAT"}
    assert flat == {(m, w): "0" for m in MEASURES_BY_KIND[kind] for w in windows}
