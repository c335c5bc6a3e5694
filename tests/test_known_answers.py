"""Known answers: a stock tree whose `afx` antifragility follows from the
definitions by hand, checked on the antifragility.csv of a real run.

Every other check of A compares the engine with a second reading of the
same definitions (``tests/oracle.py``) or with earlier engine code, so a
slip made in both would pass them. These answers fix the sign and the timing
of the score: satisfaction is p(t) - p(t-1) of the normalized price, and
`afx` multiplies it by the normalized VIX level of the same period t.

VIX levels 10, 18, 10, 26, 10, 26 normalize to 0, 0.5, 0, 1, 0, 1 over the
window ((level - 10) / 16), and every price series below normalizes to
multiples of 1/4, so each instant and each mean is exact in binary.
"""

import datetime as dt

import pytest

import antifrag.cli as cli

DAYS = [dt.date(2015, 1, d) for d in (5, 6, 7, 8, 9, 12)]
VIX = [10.0, 18.0, 10.0, 26.0, 10.0, 26.0]
PRICES = {
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
}


@pytest.fixture(scope="module")
def scores(tmp_path_factory) -> dict[str, tuple[str, int]]:
    """Each agent's (A text, n_used) in antifragility.csv, after checking
    that each row is the one `afx` case of the run."""
    root = tmp_path_factory.mktemp("known")
    (root / "agents").mkdir()
    (root / "indexes").mkdir()
    for aid, prices in PRICES.items():
        (root / "agents" / f"{aid}.csv").write_text("".join(
            ["date,open,volume\n"]
            + [f"{d},{p!r},1000.0\n" for d, p in zip(DAYS, prices) if p is not None]))
    (root / "indexes" / "vix.csv").write_text(
        "".join(["date,level\n"] + [f"{d},{v!r}\n" for d, v in zip(DAYS, VIX)]))
    (root / "config.cfg").write_text(
        "market_kind = stock\ndata_dir = agents\nindex_dir = indexes\noutput_dir = out\n"
        "windows = w:2015-01-01:2015-01-31\nscales = 0\nmeasures = afx\n")
    assert cli.main(["run", "--config", str(root / "config.cfg")]) == 0
    header, *rows = (root / "out" / "antifragility.csv").read_text().splitlines()
    assert header == "agent_id,measure,scale,window,global_A,n_used"
    out = {}
    for row in rows:
        aid, measure, scale, window, a, n = row.split(",")
        assert (measure, scale, window) == ("afx", "0", "w")
        out[aid] = (a, int(n))
    assert sorted(out) == sorted(PRICES)
    return out


def test_an_agent_quoted_twice_scores_plus_or_minus_one_at_the_perturbation_peak(scores):
    assert scores["YOUNG_UP"] == ("1", 1)
    assert scores["YOUNG_DOWN"] == ("-1", 1)


def test_agents_that_step_with_vix_score_positive_and_against_it_negative(scores):
    assert scores["UP"] == ("0.25", 5)
    assert scores["DOWN"] == ("-0.25", 5)
