"""End-to-end command line tests built on the synthetic fixture dataset."""

import hashlib
import logging
import subprocess
import sys
import types
from pathlib import Path

import pytest

import antifrag.cli as cli
from antifrag import measures, pipeline, resampling
from antifrag.config import load_config

GOLDEN_DIR = Path(__file__).parent / "golden"

REPORTS = [
    "antifragility.csv",
    "bins.csv",
    "comparison.json",
    "correlations.csv",
    "distributions.csv",
    "performance.csv",
    "run_manifest.json",
    "scatter.csv",
]


@pytest.fixture()
def fixture_tree(tmp_path, capsys):
    assert cli.main(["fixture", "--out", str(tmp_path / "fx")]) == 0
    capsys.readouterr()
    return tmp_path / "fx"


def report_names(out_dir: Path) -> list[str]:
    return sorted(p.name for p in out_dir.iterdir() if p.is_file())


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}


def test_fixture_lists_config_paths(tmp_path, capsys):
    assert cli.main(["fixture", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert Path(line).is_file()
    assert (tmp_path / "stocks" / "agents" / "AAA.csv").is_file()
    assert (tmp_path / "stocks" / "indexes" / "vix.csv").is_file()
    assert (tmp_path / "crypto" / "agents" / "XCOIN.csv").is_file()
    assert (tmp_path / "crypto" / "top_performers.json").is_file()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_run_stock_fixture_writes_all_reports(fixture_tree):
    config = fixture_tree / "stocks" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    assert report_names(fixture_tree / "stocks" / "output") == REPORTS


def test_run_crypto_fixture_writes_all_reports(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    assert report_names(fixture_tree / "crypto" / "output") == REPORTS


def test_rerun_is_byte_identical(fixture_tree):
    config = fixture_tree / "stocks" / "config.cfg"
    out1 = fixture_tree / "o1"
    out2 = fixture_tree / "o2"
    for out in (out1, out2):
        rc = cli.main(
            ["run", "--config", str(config), "--workers", "1", "--out", str(out)]
        )
        assert rc == 0
    assert read_all(out1) == read_all(out2)


def test_worker_count_does_not_change_bytes(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    out1 = fixture_tree / "w1"
    out2 = fixture_tree / "w2"
    assert cli.main(["run", "--config", str(config), "--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(config), "--workers", "2", "--out", str(out2)]) == 0
    assert read_all(out1) == read_all(out2)


def test_out_flag_overrides_config(fixture_tree, tmp_path):
    config = fixture_tree / "crypto" / "config.cfg"
    elsewhere = tmp_path / "elsewhere"
    rc = cli.main(
        ["run", "--config", str(config), "--workers", "1", "--out", str(elsewhere)]
    )
    assert rc == 0
    assert report_names(elsewhere) == REPORTS
    assert not (fixture_tree / "crypto" / "output").exists()


def test_dump_panels_writes_normalized_series(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    rc = cli.main(
        ["run", "--config", str(config), "--workers", "1", "--dump-panels"]
    )
    assert rc == 0
    panels = fixture_tree / "crypto" / "output" / "panels"
    assert (panels / "2014_s0_price.csv").is_file()
    assert (panels / "2014_s2_market_cap.csv").is_file()
    header = (panels / "2014_s0_price.csv").read_text().splitlines()[0]
    assert header == "period,XCOIN,YCOIN,ZCOIN"


# SHA-256 of every --dump-panels file of both fixtures, written by the code
# that still joined dates through dicts; the ordinal-array dump must match.
PANEL_DIGESTS = {
    "stocks": {
        "2014_s0_index.csv": "b891b652e54cb57ecd323d3080ea8ab86409260202b3830ea64d40103c52c588",
        "2014_s0_price.csv": "93560c6b4013dc7e44ae60b2d50a24dd1955b48a43c3f3816cd7da4abecc7450",
        "2014_s0_volume.csv": "5212513ad52658c2dbd7100397c03435ff3496558f85080129b608fc68c03208",
        "2014_s1_index.csv": "ca302cd1ef90dd1b63046fa81212b07576bc27a1c5d0560710f0241f586a4534",
        "2014_s1_price.csv": "3e4a0f894718ccab04145c54115ef8abd19f22d750cda66b3651c2838bdc90fb",
        "2014_s1_volume.csv": "a8d8682c460ed64d575e0aa9c450168b84f823a17c50a48545a45ba5ab8cb359",
        "2014_s2_index.csv": "cce9232442d2a6d5bfd6d97bca280bbe6857f38e895d941f5c4b0a06ab2abfd7",
        "2014_s2_price.csv": "b743748e815b28bc6e09b3fc72ba83720c5d7cc4e24a3d14152119efddd0cdf2",
        "2014_s2_volume.csv": "af9ffecb38917ece795743cec24467cb22154a63a699a780d08689267fd5ad3a",
    },
    "crypto": {
        "2014_s0_market_cap.csv": "abcbe81a0cf989b72f2379d0dda02f7d76391c0fd2df1ba582c63e05a36392da",
        "2014_s0_price.csv": "60b6e21aa56426c58305bea4c6c1be4fb58ad3c0aed9c3cc95a6796a47125319",
        "2014_s0_volume.csv": "506402e5c85e65b03b714c3990a5df1043c8b90707976a9dc9aae3105a51da9d",
        "2014_s1_market_cap.csv": "a22b130f8c9e275603a74ad16766e42d92ea89c0652a918feab043faca4de1b8",
        "2014_s1_price.csv": "d1c45ed276eb30b3964867f8a84ca9b53ee770b22ca5b729fd68fbb97d9b1462",
        "2014_s1_volume.csv": "81cefb70c8b041352d4e54bad8f46e47fb4360b85e23bb25d0a557744d3cf1ce",
        "2014_s2_market_cap.csv": "a95cb595c8bbb9766807d02e0026e2658445184b618a40fc879d2a6d9bbd3f03",
        "2014_s2_price.csv": "6e4a6340d343cf4d2ef210a799103ad9946e1b4ba7ae5c6c26a6dd99dc8a90a3",
        "2014_s2_volume.csv": "eb99cfde2ddbb145421c4c3b6cb9dcca5e59291ee3a7030bb09def8d378e42d5",
    },
}


@pytest.mark.parametrize("market", sorted(PANEL_DIGESTS))
def test_dump_panels_bytes_are_pinned(fixture_tree, market):
    config = fixture_tree / market / "config.cfg"
    argv = ["run", "--config", str(config), "--workers", "1", "--dump-panels"]
    assert cli.main(argv) == 0
    panels = fixture_tree / market / "output" / "panels"
    assert {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in panels.iterdir()
    } == PANEL_DIGESTS[market]


@pytest.mark.parametrize("dump_panels", [False, True])
def test_each_panel_is_built_once(fixture_tree, monkeypatch, dump_panels):
    config = fixture_tree / "crypto" / "config.cfg"
    calls = []
    real_build_panel = pipeline.build_panel

    def counted(agents, indexes, window, scale):
        calls.append((window.label, int(scale)))
        return real_build_panel(agents, indexes, window, scale)

    monkeypatch.setattr(pipeline, "build_panel", counted)
    argv = ["run", "--config", str(config), "--workers", "1"]
    assert cli.main(argv + ["--dump-panels"] * dump_panels) == 0
    cfg, _, _ = load_config(config)
    assert sorted(calls) == sorted(
        (w.label, int(s)) for w in cfg.windows for s in cfg.scales
    )


def test_rerun_without_top_lists_removes_stale_comparison(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    assert (out / "comparison.json").is_file()
    lines = config.read_text().splitlines(keepends=True)
    config.write_text("".join(x for x in lines if "top_performers_path" not in x))
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    assert report_names(out) == [n for n in REPORTS if n != "comparison.json"]
    assert '"top_performers_path": null' in (out / "run_manifest.json").read_text()


def test_invalid_measure_for_kind_fails(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "bad.cfg"
    config.write_text(
        "market_kind = crypto\n"
        "data_dir = agents\n"
        "output_dir = output\n"
        "windows = 2014\n"
        "measures = afx\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 1
    assert "measure afx invalid for crypto" in capsys.readouterr().err


def test_negative_workers_rejected(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "-1"]) == 1
    assert "--workers" in capsys.readouterr().err


def test_missing_index_file_is_a_clean_failure(fixture_tree, capsys):
    (fixture_tree / "stocks" / "indexes" / "vix.csv").unlink()
    config = fixture_tree / "stocks" / "config.cfg"
    assert cli.main(["run", "--config", str(config)]) == 1
    assert "vix.csv" in capsys.readouterr().err
    assert not (fixture_tree / "stocks" / "output").exists()


def test_no_agent_files_is_a_clean_failure(fixture_tree, capsys):
    for path in (fixture_tree / "crypto" / "agents").iterdir():
        path.unlink()
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config)]) == 1
    assert "no agent CSV" in capsys.readouterr().err


def test_validate_clean_config(fixture_tree, capsys):
    config = fixture_tree / "stocks" / "config.cfg"
    assert cli.main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("0 errors")


def test_validate_imports_no_numpy(fixture_tree):
    config = fixture_tree / "stocks" / "config.cfg"
    script = (
        "import sys\n"
        "from antifrag.config import load_config\n"
        f"load_config({str(config)!r})\n"
        "assert 'numpy' not in sys.modules, 'load_config'\n"
        "from antifrag.cli import main\n"
        f"assert main(['validate', '--config', {str(config)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'validate'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("0 errors")


@pytest.mark.parametrize("market", ["stocks", "crypto"])
def test_execute_builds_no_per_agent_objects(fixture_tree, monkeypatch, market):
    built = []
    for cls in (measures.SatisfactionSeries, measures.AntifragilityResult):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def view(self, rows, _view=resampling.Channel.view):
        built.append("Channel.view")
        return _view(self, rows)

    monkeypatch.setattr(resampling.Channel, "view", view)
    config, _, _ = load_config(fixture_tree / market / "config.cfg")
    assert "antifragility.csv" in pipeline.execute(config)
    assert built == []
    dumped = pipeline.execute(config, dump_panels=True)
    assert any(name.startswith("panels/") for name in dumped)
    assert built == []
    measures.SatisfactionSeries("X", None, None)
    assert built == ["SatisfactionSeries"]


def test_validate_reports_missing_data_dir(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(
        "market_kind = crypto\n"
        "data_dir = nowhere\n"
        "output_dir = out\n"
        "windows = 2014\n"
    )
    assert cli.main(["validate", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "error: data_dir" in out
    assert out.strip().endswith("1 errors")


def test_validate_overlapping_windows_is_a_note(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(
        "market_kind = crypto\n"
        "data_dir = .\n"
        "output_dir = out\n"
        "windows = 2014, h1:2014-01-01:2014-06-30\n"
    )
    assert cli.main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "note: windows 2014 and h1 overlap" in out
    assert out.strip().endswith("0 errors")


def test_validate_worker_count_is_a_note(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text() + "worker_count = 2\n")
    assert cli.main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "note: worker_count has no effect: cases run in one process" in out
    assert out.strip().endswith("0 errors")


def test_validate_unknown_key(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("market_kind = crypto\nfrobnicate = 3\n")
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert "unknown key" in capsys.readouterr().out


def test_failed_write_removes_partial_outputs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sub").write_text("occupied")  # a file where a directory must go
    monkeypatch.setattr(
        pipeline,
        "execute",
        lambda config, dump_panels=False: {"a.csv": "x\n", "sub/b.csv": "y\n"},
    )
    config = types.SimpleNamespace(output_dir=out)
    with pytest.raises(OSError):
        pipeline.run(config)
    assert not (out / "a.csv").exists()
    assert (out / "sub").is_file()


def tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every path under root, with a file's bytes (None for a directory)."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def test_failed_rerun_leaves_previous_reports_intact(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    argv = ["run", "--config", str(config), "--workers", "1", "--dump-panels"]
    assert cli.main(argv) == 0
    (out / "performance.csv").unlink()
    (out / "performance.csv").mkdir()
    before = tree_bytes(out)
    # the rerun's distributions.csv and manifest would differ from the first's
    config.write_text(config.read_text() + "n_hist_bins = 7\n")
    assert cli.main(argv) == 1
    assert "performance.csv is a directory" in capsys.readouterr().err
    assert tree_bytes(out) == before


def test_stock_outputs_match_golden(fixture_tree):
    config = fixture_tree / "stocks" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    out = fixture_tree / "stocks" / "output"
    for fresh, golden in [
        ("scatter.csv", "stock_scatter.csv"),
        ("comparison.json", "stock_comparison.json"),
    ]:
        assert (out / fresh).read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_crypto_outputs_match_golden(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    out = fixture_tree / "crypto" / "output"
    for name in ("scatter", "antifragility", "bins", "correlations"):
        golden = GOLDEN_DIR / f"crypto_{name}.csv"
        assert (out / f"{name}.csv").read_bytes() == golden.read_bytes()


def test_agent_id_with_comma_fails_the_run(fixture_tree, capsys):
    agents = fixture_tree / "crypto" / "agents"
    (agents / "X,Y.csv").write_bytes((agents / "XCOIN.csv").read_bytes())
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 1
    assert "agent id 'X,Y'" in capsys.readouterr().err
    assert not (fixture_tree / "crypto" / "output").exists()


def test_window_label_outside_charset_is_a_config_error(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "config.cfg"
    text = config.read_text().replace(
        "windows = 2014", "windows = ../../x:2014-01-01:2014-12-31"
    )
    config.write_text(text)
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert "error: windows: window label '../../x'" in capsys.readouterr().out
    rc = cli.main(["run", "--config", str(config), "--workers", "1", "--dump-panels"])
    assert rc == 1
    assert "window label" in capsys.readouterr().err
    assert not list(fixture_tree.parent.rglob("x_s*.csv"))


def test_window_date_must_be_yyyy_mm_dd(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(
        "market_kind = crypto\n"
        "data_dir = .\n"
        "output_dir = out\n"
        "windows = h1:20140101:2014-06-30, h2:2014-07-01:2014-W52-7\n"
    )
    assert cli.main(["validate", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "error: windows: date '20140101' is not YYYY-MM-DD" in out
    assert "error: windows: date '2014-W52-7' is not YYYY-MM-DD" in out


def test_skipped_bins_are_one_warning_per_run(fixture_tree, caplog):
    config = fixture_tree / "stocks" / "config.cfg"
    with caplog.at_level(logging.WARNING, logger="antifrag"):
        assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    skipped = [r for r in caplog.records if "bins skipped" in r.getMessage()]
    assert len(skipped) == 1
    assert skipped[0].getMessage() == (
        "bins skipped in 12 of 12 cases (fewer than 5 agents defined): "
        "age_days, pct_dlt_pr, pct_dlt_mk, pct_dlt_vl, pct_pr_f_i, pct_mk_f_i, "
        "pct_vl_f_i, pr_mea, pr_std, mk_mea, vl_mea"
    )


def test_scatter_formats_each_value_once(fixture_tree, monkeypatch):
    calls = []
    real_fmt = pipeline.fmt
    real_render = pipeline._render_antifragility_and_scatter
    calls_at_scatter_end = []

    def counted_fmt(value):
        calls.append(value)
        return real_fmt(value)

    def render(*args):
        text = real_render(*args)
        calls_at_scatter_end.append(len(calls))
        return text

    monkeypatch.setattr(pipeline, "fmt", counted_fmt)
    monkeypatch.setattr(pipeline, "_render_antifragility_and_scatter", render)
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0
    out = fixture_tree / "crypto" / "output"
    a_values = len((out / "antifragility.csv").read_text().splitlines()) - 1
    defined = sum(
        1
        for line in (out / "performance.csv").read_text().splitlines()[1:]
        for cell in line.split(",")[2:-1]
        if cell
    )
    assert len((out / "scatter.csv").read_text().splitlines()) > a_values
    assert len(calls_at_scatter_end) == 1
    assert calls_at_scatter_end[0] <= a_values + defined


def set_column(path: Path, name: str, values: list[str]) -> None:
    """Give column ``name`` of a fixture CSV the ``values``, cycled over its rows."""
    header, *rows = path.read_text().splitlines()
    k = header.split(",").index(name)
    lines = [header]
    for i, row in enumerate(rows):
        cells = row.split(",")
        cells[k] = values[i % len(values)]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("market, agent, column, values", [
    ("crypto", "XCOIN", "market_cap", ["1e308"]),
    ("stocks", "AAA", "open", ["1e160", "0.0"]),
])
def test_value_above_1e100_is_one_error_line(fixture_tree, market, agent, column, values):
    path = fixture_tree / market / "agents" / f"{agent}.csv"
    set_column(path, column, values)
    config = fixture_tree / market / "config.cfg"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "antifrag.cli", "run", "--config", str(config)],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {path}: line 2: {column} value above 1e+100"
    ]


def test_values_of_1e100_run_cleanly(fixture_tree):
    agent = fixture_tree / "crypto" / "agents" / "XCOIN.csv"
    for column in ("open", "volume", "market_cap"):
        set_column(agent, column, ["1e100", "0.0"])
    set_column(fixture_tree / "stocks" / "agents" / "AAA.csv", "open", ["1e100", "0.0"])
    for market in ("crypto", "stocks"):
        config = fixture_tree / market / "config.cfg"
        assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 0


def test_rerun_without_dump_panels_removes_stale_panels(fixture_tree):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    argv = ["run", "--config", str(config), "--workers", "1"]
    assert cli.main(argv + ["--dump-panels"]) == 0
    assert len(list((out / "panels").glob("*.csv"))) == 9
    (out / "panels" / "notes.txt").write_text("kept")
    assert cli.main(argv) == 0
    assert sorted(p.name for p in (out / "panels").iterdir()) == ["notes.txt"]
    (out / "panels" / "notes.txt").unlink()
    assert cli.main(argv + ["--dump-panels"]) == 0
    assert cli.main(argv) == 0
    assert report_names(out) == REPORTS
    assert not (out / "panels").exists()
