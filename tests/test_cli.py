"""End-to-end command line tests built on the synthetic fixture dataset."""

import codecs
import datetime as dt
import hashlib
import json
import logging
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import antifrag.cli as cli
from antifrag import analysis, measures, pipeline, resampling
from antifrag.config import load_config, read_config_file
from antifrag.errors import IngestionError
from antifrag.ingestion import load_agent_series

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


def child_env(**extra: str) -> dict[str, str]:
    """A child interpreter's environment: ``src`` on its path, ``extra``, and
    the caller's bytecode settings, so that a test run asked to write no
    bytecode leaves none in ``src``. Nothing else is passed on."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), **extra}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        if name in os.environ:
            env[name] = os.environ[name]
    return env


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


@pytest.mark.parametrize("out", ["afile", "afile/x"])
def test_fixture_into_a_file_is_one_error_line(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("kept\n")
    assert cli.main(["fixture", "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == "kept\n"


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


@pytest.mark.parametrize("dump_panels", [False, True])
def test_each_pair_is_freed_before_the_next_is_built(fixture_tree, monkeypatch, dump_panels):
    # the crypto fixture is quoted daily, so none of its three scales
    # aliases another: each pair builds a panel and computes its measures
    config, _, _ = load_config(fixture_tree / "crypto" / "config.cfg")
    held, built = [], []
    real = {name: getattr(pipeline, name) for name in ("build_panel", "compute_measures")}

    def build_panel(agents, indexes, window, scale):
        assert [ref() for ref in held] == [None] * len(held), "an earlier pair is alive"
        built.append(int(scale))
        return real["build_panel"](agents, indexes, window, scale)

    def compute_measures(panel, measures):
        ws = real["compute_measures"](panel, measures)
        held.extend([weakref.ref(panel), weakref.ref(ws)])
        return ws

    monkeypatch.setattr(pipeline, "build_panel", build_panel)
    monkeypatch.setattr(pipeline, "compute_measures", compute_measures)
    pipeline.execute(config, dump_panels)
    assert (built, len(held)) == ([0, 1, 2], 6)


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


def test_failed_stale_report_removal_keeps_the_previous_manifest(fixture_tree, capsys,
                                                                 monkeypatch):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    assert cli.main(["run", "--config", str(config)]) == 0
    manifest = (out / "run_manifest.json").read_bytes()
    lines = config.read_text().splitlines(keepends=True)
    config.write_text("".join(x for x in lines if "top_performers_path" not in x))

    def unlink(path, missing_ok=False, _unlink=Path.unlink):
        if path.name == "comparison.json":
            raise PermissionError(f"cannot remove {path}")
        _unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", unlink)
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: cannot remove {out / 'comparison.json'}\n"
    assert (out / "run_manifest.json").read_bytes() == manifest
    assert report_names(out) == REPORTS


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
    assert capsys.readouterr().err == "error: worker_count must be >= 0\n"


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
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("0 errors")


def test_each_command_imports_only_what_it_runs(fixture_tree):
    # only modules the command loads count: the interpreter's site may load more
    config = fixture_tree / "stocks" / "config.cfg"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from antifrag.cli import main\n"
        f"assert main(['validate', '--config', {str(config)!r}]) == 0\n"
        "loaded = {'numpy', 'dataclasses', 'inspect', 'logging', 'hashlib'}\n"
        "loaded &= set(sys.modules) - before\n"
        "assert not loaded, f'validate imported {sorted(loaded)}'\n"
        "import antifrag.pipeline, antifrag.fixture\n"
        "assert 'dataclasses' not in set(sys.modules) - before, 'pipeline'\n"
        # numpy 2's np.unique without index outputs imports numpy.ma; numpy 1
        # imports it with numpy, so only what a run adds counts
        "imported = set(sys.modules)\n"
        f"for config in {[str(fixture_tree / m / 'config.cfg') for m in ('stocks', 'crypto')]!r}:\n"
        "    assert main(['run', '--config', config]) == 0\n"
        "    assert 'numpy.ma' not in set(sys.modules) - imported, f'run of {config}'\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("0 errors")


def cli_in_subprocess(*argv: str) -> subprocess.CompletedProcess:
    """``antifrag argv...`` in a fresh interpreter, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "antifrag.cli", *argv],
                          capture_output=True, text=True, env=child_env())


def test_stderr_of_each_command_is_its_log_lines(fixture_tree, tmp_path):
    config = fixture_tree / "stocks" / "config.cfg"
    done = cli_in_subprocess("fixture", "--out", str(tmp_path / "fx"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [str(tmp_path / "fx" / m / "config.cfg")
                                        for m in ("stocks", "crypto")]
    done = cli_in_subprocess("validate", "--config", str(config))
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 errors\n", "")
    # no stock agent has a market cap: the mk_* metrics are undefined, not skipped
    skipped = ("WARNING antifrag.pipeline: bins skipped in 12 of 12 cases (fewer than 5 "
               "agents defined): age_days, pct_dlt_pr, pct_dlt_vl, pct_pr_f_i, "
               "pct_vl_f_i, pr_mea, pr_std, vl_mea")
    out = tmp_path / "out"
    done = cli_in_subprocess("run", "--config", str(config), "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr.splitlines()) == (0, "", [skipped])
    config.write_text(config.read_text() + "worker_count = 2\n")
    done = cli_in_subprocess("--verbose", "run", "--config", str(config), "--out", str(out))
    assert (done.returncode, done.stdout) == (0, "")
    assert done.stderr.splitlines() == [
        # run as ``python -m antifrag.cli``, the cli module's logger is __main__
        "INFO __main__: worker_count has no effect: cases run in one process",
        skipped,
        f"INFO antifrag.pipeline: wrote 8 report files to {out}",
    ]


def test_windows_without_a_top_list_are_named_in_one_warning(fixture_tree, tmp_path):
    # the top list holds 2014 only; two more windows end in 2015 and 2016
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text().replace(
        "windows = 2014\n", "windows = 2014, a:2014-01-01:2015-01-31, b:2014-02-01:2016-06-30\n"))
    done = cli_in_subprocess("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert done.returncode == 0
    assert [line for line in done.stderr.splitlines() if "top-performer" in line] == [
        "WARNING antifrag.performance: no top-performer list in 2 of 3 windows: "
        "year 2015 (window a), year 2016 (window b)"]


# an exit handler registered before cli() runs; it reports the process's
# thread count (from /proc, where there is one) and the BLAS thread setting
CLI_EXIT_SCRIPT = """\
import atexit, os, sys
def report():
    task = "/proc/self/task"
    print(len(os.listdir(task)) if os.path.isdir(task) else "-")
    print(os.environ.get("OPENBLAS_NUM_THREADS"))
atexit.register(report)
sys.argv = ["antifrag", *sys.argv[1:]]
from antifrag.cli import cli
cli()
"""


# an empty setting counts as unset: OpenBLAS would start its threads
@pytest.mark.parametrize("blas_threads, threads", [(None, "1"), ("", "1"), ("2", None)])
def test_cli_runs_exit_handlers_and_starts_no_blas_thread(fixture_tree, tmp_path,
                                                          blas_threads, threads):
    config = fixture_tree / "crypto" / "config.cfg"
    env = child_env()
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", CLI_EXIT_SCRIPT, "run", "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    task_count, setting = done.stdout.splitlines()
    assert setting == (blas_threads or "1")
    if threads is not None and task_count != "-":
        assert task_count == threads
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "in_process")]) == 0
    assert read_all(out) == read_all(tmp_path / "in_process")


def test_exits_of_the_module_entry_point(fixture_tree):
    # argparse's exits leave main() as SystemExit and take the ordinary exit
    done = cli_in_subprocess("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: antifrag")
    done = cli_in_subprocess("run")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: antifrag")
    assert done.stderr.endswith("the following arguments are required: --config\n")
    # main()'s own codes end the process after a flush of the piped output
    # (fixture's piped output: test_stderr_of_each_command_is_its_log_lines)
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text() + "worker_count = 2\nn_hist_bins = 10001\n")
    done = cli_in_subprocess("run", "--config", str(config))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == ["error: n_hist_bins must be at most 10000"]
    done = cli_in_subprocess("validate", "--config", str(config))
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines() == [
        "note: worker_count has no effect: cases run in one process",
        "error: n_hist_bins must be at most 10000",
        "1 errors",
    ]
    # output nobody reads: exit 120, as a failed flush at the interpreter's exit
    proc = subprocess.Popen([sys.executable, "-m", "antifrag.cli", "validate", "--config",
                             str(config)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (120, b"")
    proc.stderr.close()


@pytest.mark.parametrize("command", ["validate", "fixture"])
def test_a_print_to_a_closed_pipe_exits_120_quietly(fixture_tree, tmp_path, command):
    # unbuffered, the first print meets the closed pipe inside main()
    config = fixture_tree / "crypto" / "config.cfg"
    argv = ["--config", str(config)] if command == "validate" else ["--out", str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "antifrag.cli", command, *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=child_env(PYTHONUNBUFFERED="1"))
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (120, b"")


def test_out_and_workers_override_the_loaded_config(fixture_tree, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(pipeline, "run", lambda config, dump_panels: runs.append(config))
    config = fixture_tree / "crypto" / "config.cfg"
    loaded, _, _ = load_config(config)
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (runs[0].worker_count, runs[0].output_dir) == (0, loaded.output_dir)
    argv = ["run", "--config", str(config), "--workers", "3", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    assert (runs[1].worker_count, runs[1].output_dir) == (3, tmp_path / "x")
    assert runs[1].windows == loaded.windows


@pytest.mark.parametrize("line, error", [
    ("output_dir = agents",
     "output_dir {root}/agents is data_dir: its reports would be read as agents"),
    ("", "output_dir is required"),
], ids=["output-dir-is-data-dir", "no-output-dir"])
def test_out_replaces_output_dir_before_the_check(fixture_tree, tmp_path, capsys, monkeypatch,
                                                  line, error):
    # only the output_dir a run writes to is checked; --out is relative to the
    # working directory, not to the config's
    root = fixture_tree.resolve() / "crypto"
    config = root / "config.cfg"
    config.write_text(config.read_text().replace("output_dir = output", line))
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {error.format(root=root)}\n"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(config), "--out", "elsewhere"]) == 0
    assert report_names(tmp_path / "elsewhere") == REPORTS


def test_workers_flag_gives_the_worker_count_note(fixture_tree, tmp_path):
    config = fixture_tree / "crypto" / "config.cfg"
    out = tmp_path / "out"
    done = cli_in_subprocess("--verbose", "run", "--config", str(config), "--workers", "2",
                             "--out", str(out))
    assert (done.returncode, done.stdout) == (0, "")
    lines = done.stderr.splitlines()
    assert lines[0] == "INFO __main__: worker_count has no effect: cases run in one process"
    assert lines[-1] == f"INFO antifrag.pipeline: wrote 8 report files to {out}"


@pytest.mark.parametrize("market", ["stocks", "crypto"])
def test_execute_builds_no_per_agent_objects(fixture_tree, monkeypatch, market):
    built = []
    # named tuples: every construction goes through __new__
    for cls in (measures.SatisfactionSeries, measures.AntifragilityResult):
        def counted(cls_, *args, _new=cls.__new__, **kwargs):
            built.append(cls_.__name__)
            return _new(cls_, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))

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


@pytest.mark.parametrize("n_bins, errors", [
    (10_000, []),
    (10_001, ["error: n_hist_bins must be at most 10000"]),
])
def test_validate_bounds_n_hist_bins(fixture_tree, capsys, n_bins, errors):
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text() + f"n_hist_bins = {n_bins}\n")
    assert cli.main(["validate", "--config", str(config)]) == (1 if errors else 0)
    assert capsys.readouterr().out.splitlines() == [*errors, f"{len(errors)} errors"]


def test_validate_unknown_key(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("market_kind = crypto\nfrobnicate = 3\n")
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert "unknown key" in capsys.readouterr().out


def config_lines(**keys) -> list[str]:
    """A valid crypto config's lines, less each key given as None and with
    each other key given set to its value."""
    base = {"market_kind": "crypto", "data_dir": ".", "output_dir": "out", "windows": "2014"}
    return [f"{key} = {value}" for key, value in {**base, **keys}.items() if value is not None]


WORKER_NOTE = "note: worker_count has no effect: cases run in one process"


# every message build_config and read_config_file give; {config} is the
# config file and {dir} its directory
@pytest.mark.parametrize("lines, output", [
    (config_lines() + ["windows"], ["error: {config}: line 5: expected key = value"]),
    (config_lines() + ["data_dir = ."], ["error: {config}: line 5: duplicate key 'data_dir'"]),
    (None, ["error: cannot read config {config}: "
            "[Errno 2] No such file or directory: '{config}'"]),
    (config_lines(windows="2014,"),
     ["error: windows: bad window spec '' (want a year or label:start:end)"]),
    (config_lines(windows="abc"),
     ["error: windows: bad window spec 'abc' (want a year or label:start:end)"]),
    (config_lines(windows="a:2014-01-01"),
     ["error: windows: bad window spec 'a:2014-01-01' (want label:start:end)"]),
    (config_lines(windows="100000000000000000000"),
     ["error: windows: bad window spec '100000000000000000000' (want a year or label:start:end)"]),
    (config_lines(windows="0"),
     ["error: windows: bad window spec '0' (want a year or label:start:end)"]),
    (config_lines(windows="2014, 2014"),
     ["note: windows 2014 and 2014 overlap", "error: windows: duplicate labels"]),
    (config_lines(market_kind="bond"),
     ["error: market_kind must be one of stock/crypto, got 'bond'"]),
    (config_lines(data_dir=None), ["error: data_dir is required"]),
    (config_lines(output_dir=None), ["error: output_dir is required"]),
    (config_lines(output_dir="."),
     ["error: output_dir {dir} is data_dir: its reports would be read as agents"]),
    (config_lines(windows=None), ["error: windows is required"]),
    (config_lines(scales="0,3"), ["error: scales: bad value '3' (valid: 0, 1, 2)"]),
    (config_lines(scales="1, 1"), ["error: scales: duplicates"]),
    (config_lines(scales=""), ["error: scales must not be empty"]),
    (config_lines(measures=","), ["error: measures must not be empty"]),
    (config_lines(measures=""), ["error: measures must not be empty"]),
    (config_lines(measures="afp, afp, afv"), ["error: measures: duplicates"]),
    (config_lines(market_kind="stock"),
     ["error: index_dir is required for stock measures afx/af3m"]),
    (config_lines(market_kind="stock", index_dir="nowhere"),
     ["error: index_dir {dir}/nowhere is not a directory"]),
    (config_lines(top_performers_path="top.json"),
     ["error: top_performers_path {dir}/top.json is not a file"]),
    (config_lines(n_hist_bins="many"), ["error: n_hist_bins: bad value 'many'"]),
    (config_lines(n_hist_bins="0"), ["error: n_hist_bins must be at least 1"]),
    (config_lines(worker_count="two"),
     [WORKER_NOTE, "error: worker_count: bad value 'two'"]),
    (config_lines(worker_count="-1"), [WORKER_NOTE, "error: worker_count must be >= 0"]),
], ids=["no-equals", "duplicate-key", "unreadable", "empty-window", "bad-year", "bad-span",
        "huge-year", "year-0", "duplicate-labels", "market-kind", "no-data-dir", "no-output-dir",
        "output-dir-is-data-dir", "no-windows", "bad-scale", "duplicate-scales",
        "empty-scales", "empty-measures", "blank-measures", "duplicate-measures",
        "no-index-dir", "index-dir-not-a-dir", "top-path-not-a-file", "bad-n-hist-bins",
        "zero-n-hist-bins", "bad-worker-count", "negative-worker-count"])
def test_validate_prints_each_config_error(tmp_path, capsys, lines, output):
    config = tmp_path / "c.cfg"
    if lines is not None:
        config.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate", "--config", str(config)]) == 1
    expected = [line.format(config=config, dir=tmp_path.resolve()) for line in output]
    errors = sum(line.startswith("error: ") for line in expected)
    assert capsys.readouterr().out.splitlines() == [*expected, f"{errors} errors"]


def test_config_lines_end_only_at_line_ends(tmp_path, capsys):
    # str.splitlines would also end a line at the form feed
    config = tmp_path / "c.cfg"
    config.write_text("market_kind = crypto\x0cdata_dir = .\noutput_dir = out\nbogus = 1\n")
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: {config}: line 3: unknown key 'bogus'",
        "1 errors",
    ]
    config.write_text("market_kind = crypto\x0cdata_dir = .\r\noutput_dir = out\r")
    assert read_config_file(config) == {
        "market_kind": "crypto\x0cdata_dir = .",
        "output_dir": "out",
    }


@pytest.mark.parametrize("piece", [None, 7])
def test_reports_written_in_pieces_keep_their_bytes(tmp_path, piece):
    # each text whole, or cut every 7 characters: mid-line and between the
    # two-byte characters
    for text in ("a,1\n" * 300_000, "é,ü\n" * 5, "short\n", ""):
        size = piece or max(len(text), 1)
        pieces = (text[start : start + size] for start in range(0, len(text), size))
        pipeline._write(tmp_path / "report.csv", pieces)
        assert (tmp_path / "report.csv").read_bytes() == text.encode("utf-8")


def test_failed_write_removes_partial_outputs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sub").write_text("occupied")  # a file where a directory must go
    monkeypatch.setattr(
        pipeline,
        "_reports",
        lambda config, dump_panels: [("a.csv", ["x\n"]), ("sub/b.csv", ["y\n"])],
    )
    config = types.SimpleNamespace(output_dir=out)
    with pytest.raises(OSError):
        pipeline.run(config)
    assert not (out / "a.csv").exists()
    assert (out / "sub").is_file()


def test_failed_render_removes_the_output_dir_it_made(tmp_path, monkeypatch):
    def failing():
        yield "x\n"
        raise ValueError("render")

    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "_reports", lambda config, dump_panels: [("a.csv", failing())])
    with pytest.raises(ValueError):
        pipeline.run(types.SimpleNamespace(output_dir=out))
    assert not out.exists()


@pytest.mark.parametrize("market", ["stocks", "crypto"])
def test_reports_read_in_any_order_give_the_text_execute_gives(fixture_tree, market):
    # every renderer reads only the cases and tables: none waits for another
    config, _, _ = load_config(fixture_tree / market / "config.cfg")
    texts = pipeline.execute(config)
    reports = pipeline._reports(config, dump_panels=False)
    assert {name: "".join(pieces) for name, pieces in reversed(reports)} == texts


@pytest.mark.parametrize("market", ["stocks", "crypto"])
def test_run_writes_the_text_execute_gives(fixture_tree, market):
    config, _, _ = load_config(fixture_tree / market / "config.cfg")
    texts = pipeline.execute(config, dump_panels=True)
    out = pipeline.run(config, dump_panels=True)
    written = {p.relative_to(out).as_posix(): p.read_bytes()
               for p in out.rglob("*") if p.is_file()}
    assert written == {name: text.encode("utf-8") for name, text in texts.items()}


def write_wide_crypto_tree(root: Path, n_agents: int) -> Path:
    """Crypto agents quoted every 30 days over 2014-2016 and a config of the
    three years: few input rows, many report rows. Returns the config path."""
    rng = np.random.default_rng(0)
    days = [dt.date(2014, 1, 1) + dt.timedelta(days=d) for d in range(0, 3 * 365, 30)]
    (root / "agents").mkdir(parents=True)
    for k in range(n_agents):
        walks = np.exp(np.cumsum(rng.normal(0, 0.05, (3, len(days))), axis=1))
        rows = zip(days, (50 * walks[0]).tolist(), (1e5 * walks[1]).tolist(),
                   (1e8 * walks[2]).tolist())
        lines = ["date,open,volume,market_cap"]
        lines += [f"{d.isoformat()},{p!r},{v!r},{c!r}" for d, p, v, c in rows]
        (root / "agents" / f"C{k:04d}.csv").write_text("\n".join(lines) + "\n")
    config = root / "config.cfg"
    config.write_text("market_kind = crypto\ndata_dir = agents\noutput_dir = out\n"
                      "windows = 2014,2015,2016\n")
    return config


def test_run_holds_no_report_whole(tmp_path):
    # every report is written piece by piece, so the largest, scatter.csv,
    # is never in memory whole; holding it once would make the peak larger
    config, _, _ = load_config(write_wide_crypto_tree(tmp_path, 120))
    tracemalloc.start()
    try:
        pipeline.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "scatter.csv").stat().st_size
    assert size > 3_000_000
    assert peak < size


def test_cases_that_repeat_their_window_are_analysed_once(tmp_path, monkeypatch):
    # one quote every 30 days: the daily and weekly panels hold the same
    # quotes, so those cases of a window have the same agents and A values
    path = write_wide_crypto_tree(tmp_path, 8)
    # market caps on three agents only: every case skips the mk_* bins
    for agent in sorted((tmp_path / "agents").glob("*.csv"))[3:]:
        header, *rows = agent.read_text().splitlines()
        agent.write_text("\n".join([header, *(r.rsplit(",", 1)[0] + "," for r in rows)]) + "\n")
    path.write_text(path.read_text() + "scales = 0,1,2\n")
    config, _, _ = load_config(path)
    calls = dict.fromkeys(("bin_stats", "correlation", "distribution"), 0)

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return call

    rendered = {}

    def spied(name, render):
        def spy(cases, *args):
            rendered[name] = (render, cases, args)
            return render(cases, *args)
        return spy

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
    for name, render in (("bins.csv", "_render_bins"), ("correlations.csv", "_render_correlations"),
                         ("distributions.csv", "_render_distributions")):
        monkeypatch.setattr(pipeline, render, spied(name, getattr(pipeline, render)))
    texts = pipeline.execute(config)
    counts = dict(calls)

    # a case's agents and A texts, which tell apart every two float64 values
    # the pipeline can give (-0.0 is written -0), and its n_pairs per variable
    cases, pairs = {}, {}
    for line in texts["antifragility.csv"].splitlines()[1:]:
        aid, measure, scale, window, a, _ = line.split(",")
        cases.setdefault((window, measure, scale), []).append((aid, a))
    for line in texts["correlations.csv"].splitlines()[1:]:
        window, measure, scale, _, _, n = line.split(",")
        pairs.setdefault((window, measure, scale), []).append(int(n))
    distinct = {(case[0], tuple(agents)): pairs[case] for case, agents in cases.items()}
    assert len(cases) == 36 and len(distinct) < 36
    assert counts == {
        "bin_stats": sum(2 * (n >= 5) for ns in distinct.values() for n in ns),
        "correlation": sum(n > 0 for ns in distinct.values() for n in ns),
        "distribution": len(distinct),
    }
    for name, (render, cases, args) in rendered.items():
        header = next(render([], *args))
        assert texts[name] == header + "".join(
            "".join(render([case], *args))[len(header):] for case in cases)

    # the warning counts every case that skips bins, a repeat as its first
    done = cli_in_subprocess("run", "--config", str(path))
    assert (done.returncode, done.stderr.splitlines()) == (0, [
        "WARNING antifrag.pipeline: bins skipped in 36 of 36 cases (fewer than 5 agents "
        "defined): pct_dlt_mk, pct_mk_f_i, mk_mea"])


@pytest.mark.parametrize("dump_panels", [False, True])
def test_scales_that_only_relabel_periods_are_computed_once(tmp_path, monkeypatch, dump_panels):
    # one quote every 30 days from 2014-01-01: no week holds two, so the
    # weekly scale relabels the daily one's periods in every window; only
    # January and May 2014 hold two quotes, so the monthly scale is computed
    # on its own in 2014 alone
    path = write_wide_crypto_tree(tmp_path, 8)
    path.write_text(path.read_text() + "scales = 2,0,1\n")
    config, _, _ = load_config(path)
    calls = {"build_panel": [], "compute_measures": []}
    real = {name: getattr(pipeline, name) for name in calls}

    def build_panel(agents, indexes, window, scale):
        calls["build_panel"].append((window.label, int(scale)))
        return real["build_panel"](agents, indexes, window, scale)

    def compute_measures(panel, measures):
        calls["compute_measures"].append((panel.window.label, int(panel.scale)))
        return real["compute_measures"](panel, measures)

    monkeypatch.setattr(pipeline, "build_panel", build_panel)
    monkeypatch.setattr(pipeline, "compute_measures", compute_measures)
    texts = pipeline.execute(config, dump_panels)
    computed = [("2014", 0), ("2014", 2), ("2015", 0), ("2016", 0)]
    pairs = [(w, s) for w in ("2014", "2015", "2016") for s in (0, 1, 2)]
    assert calls == {"build_panel": pairs if dump_panels else computed,
                     "compute_measures": computed}
    # every pair keeps its alive count and its own rows, 8 agents x 4 measures
    alive = json.loads(texts["run_manifest.json"])["alive_agents"]
    assert alive == {w: {"0": 8, "1": 8, "2": 8} for w in ("2014", "2015", "2016")}
    scales = [line.split(",")[2:4] for line in texts["antifragility.csv"].splitlines()[1:]]
    assert sorted(map(tuple, scales)) == sorted((str(s), w) for w, s in pairs for _ in range(32))
    panels = {name for name in texts if name.startswith("panels/")}
    assert panels == ({f"panels/{w}_s{s}_{c}.csv" for w, s in pairs
                       for c in ("price", "volume", "market_cap")} if dump_panels else set())


def test_failed_top_comparison_leaves_no_output(fixture_tree):
    # the top list names only an agent that is not alive in the window
    (fixture_tree / "crypto" / "top_performers.json").write_text('{"2014": ["QCOIN"]}\n')
    done = run_in_subprocess(fixture_tree / "crypto" / "config.cfg")
    assert (done.returncode, done.stdout) == (1, "")
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert errors == ["error: top comparison: no case has a top performer alive"]
    assert not (fixture_tree / "crypto" / "output").exists()


def test_case_without_scored_agents_leaves_no_output(fixture_tree, capsys):
    # VIX quoted only in December: no agent shares a period with afx's perturbation
    december = [dt.date(2014, 12, 1) + dt.timedelta(days=k) for k in range(20)]
    (fixture_tree / "stocks" / "indexes" / "vix.csv").write_text(
        "date,level\n" + "".join(f"{d.isoformat()},15.0\n" for d in december))
    config = fixture_tree / "stocks" / "config.cfg"
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: no agent has antifragility in case 2014/afx/0\n"
    assert not (fixture_tree / "stocks" / "output").exists()


@pytest.mark.parametrize("settings, error", [
    # two monthly periods leave afn no lagged satisfaction
    ("windows = 2014,spring:2014-03-01:2014-04-30\nscales = 2",
     "afn: no agent defined at any period in window spring at scale 2"),
    ("windows = 2014, 2030\nscales = 0,1,2",
     "empty panel: no agent alive in window 2030 at scale 0"),
], ids=["afn", "empty-panel"])
def test_case_errors_name_their_window_and_scale(fixture_tree, settings, error):
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text().replace("windows = 2014\nscales = 0,1,2", settings))
    done = run_in_subprocess(config)
    assert (done.returncode, done.stdout) == (1, "")
    assert [line for line in done.stderr.splitlines() if not line.startswith("WARNING ")] == [
        f"error: {error}"]
    assert not (fixture_tree / "crypto" / "output").exists()


def test_excluded_agents_are_one_info_line_per_run(fixture_tree):
    # VIX ends on 2014-02-17, when CCC's quotes begin and BBB's now do too: at
    # every scale neither has a satisfaction on a VIX period. Case order puts
    # window 2014 before 2014.q1, where the order of the texts would not
    root = fixture_tree / "stocks"
    for path, keep in ((root / "indexes" / "vix.csv", lambda day: day <= "2014-02-17"),
                       (root / "agents" / "BBB.csv", lambda day: day >= "2014-02-17")):
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(row for row in rows if keep(row[:10])))
    config = root / "config.cfg"
    config.write_text(config.read_text().replace(
        "windows = 2014", "windows = 2014.q1:2014-01-01:2014-03-31, 2014"))
    done = cli_in_subprocess("--verbose", "run", "--config", str(config))
    assert (done.returncode, done.stdout) == (0, "")
    cases = "; ".join(f"{w}/afx/{s}: BBB, CCC" for w in ("2014", "2014.q1") for s in range(3))
    assert [line for line in done.stderr.splitlines() if "agents excluded" in line] == [
        f"INFO antifrag.pipeline: agents excluded in 6 of 24 cases (no overlapping periods): "
        f"{cases}"]


def tree_bytes(root: Path) -> dict[str, bytes | str | None]:
    """Every path under root, no symlink followed: a file's bytes, a
    symlink's target as text, None for a directory."""
    found = {}
    for parent, dirs, files in os.walk(root):
        for path in (Path(parent, name) for name in dirs + files):
            found[str(path.relative_to(root))] = (
                os.readlink(path) if path.is_symlink()
                else None if path.is_dir() else path.read_bytes())
    return found


@pytest.mark.parametrize("data_dir, out, error", [
    ("agents", "agents", "output_dir {out} is data_dir: its reports would be read as agents"),
    ("dumps/panels", "dumps",
     "data_dir {root}/dumps/panels is output_dir's panels directory, "
     "whose CSV files a run removes"),
])
def test_no_run_writes_into_data_dir(fixture_tree, capsys, data_dir, out, error):
    root = fixture_tree.resolve() / "crypto"
    config = root / "config.cfg"
    (root / data_dir).parent.mkdir(parents=True, exist_ok=True)
    (root / "agents").rename(root / data_dir)
    text = config.read_text().replace("data_dir = agents", f"data_dir = {data_dir}")
    config.write_text(text)
    assert_every_command_refuses(capsys, root, config, text, out,
                                 error.format(out=root / out, root=root))


@pytest.mark.parametrize("where, name", [
    ("output", "output_dir"),
    ("output/panels", "output_dir's panels directory"),
])
def test_no_run_overwrites_its_top_performer_list(fixture_tree, capsys, where, name):
    # a run would replace output/comparison.json, and the next would read it
    root = fixture_tree.resolve() / "crypto"
    config = root / "config.cfg"
    (root / where).mkdir(parents=True)
    top = root / where / "comparison.json"
    (root / "top_performers.json").rename(top)
    text = config.read_text().replace("top_performers.json", f"{where}/comparison.json")
    config.write_text(text)
    assert_every_command_refuses(capsys, root, config, text, "output",
                                 f"top_performers_path {top} is in {name}, "
                                 "where a run writes reports")


def assert_every_command_refuses(capsys, root: Path, config: Path, text: str, out: str,
                                 error: str) -> None:
    """``run --out root/out`` twice, then ``validate`` and ``run`` of the config
    ``text`` with output_dir = ``out``: each fails with ``error`` and leaves
    every file under ``root`` as it was."""
    error = f"error: {error}\n"
    before = tree_bytes(root)
    for _ in range(2):  # reports written over an input would break only the run after
        assert cli.main(["run", "--config", str(config), "--out", str(root / out)]) == 1
        assert capsys.readouterr().err == error
        assert tree_bytes(root) == before
    config.write_text(text.replace("output_dir = output", f"output_dir = {out}"))
    before = tree_bytes(root)
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().out == error + "1 errors\n"
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == error
    assert tree_bytes(root) == before


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


# the crypto fixture's run moves 8 reports, run_manifest.json last
@pytest.mark.parametrize("kill_after", [1, 4, 8])
def test_next_run_removes_the_staging_a_killed_run_left(fixture_tree, tmp_path, kill_after):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    script = (
        "import os\n"
        "from antifrag.cli import main\n"
        "moves, real_replace = [], os.replace\n"
        "def replace(src, dst):\n"
        "    real_replace(src, dst)\n"
        "    moves.append(dst)\n"
        f"    if len(moves) == {kill_after}:\n"
        "        os._exit(9)\n"
        "os.replace = replace\n"
        f"main(['run', '--config', {str(config)!r}])\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert done.returncode == 9, done.stderr
    assert len(list(out.glob(".antifrag-*"))) == 1
    assert cli.main(["run", "--config", str(config)]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
    assert not list(out.glob(".antifrag-*"))
    assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


@pytest.mark.parametrize("entry", ["file", "symlink"])
def test_a_file_or_symlink_with_the_staging_name_is_removed_unfollowed(fixture_tree, tmp_path,
                                                                       entry):
    config = fixture_tree / "crypto" / "config.cfg"
    agents = fixture_tree / "crypto" / "agents"
    out = fixture_tree / "crypto" / "output"
    (agents / "sentinel.txt").write_text("kept\n")
    before = tree_bytes(agents)
    out.mkdir()
    if entry == "file":
        (out / ".antifrag-staging").write_text("not a directory\n")
    else:
        (out / ".antifrag-staging").symlink_to(agents, target_is_directory=True)
    assert cli.main(["run", "--config", str(config)]) == 0
    assert not os.path.lexists(out / ".antifrag-staging")
    assert tree_bytes(agents) == before
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
    assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


def test_each_input_is_read_once_and_digested_as_parsed(fixture_tree, monkeypatch):
    # every input file is rewritten once its loader returns: the manifest
    # keeps the digests of the bytes the run parsed
    config = fixture_tree / "stocks" / "config.cfg"
    root = fixture_tree / "stocks"
    inputs = sorted(str(p) for p in [*root.glob("*/*.csv"), root / "top_performers.json"])
    assert cli.main(["run", "--config", str(config), "--out", str(root / "first")]) == 0
    manifest = (root / "first" / "run_manifest.json").read_bytes()

    # Path.read_bytes and read_text open through Path.open on every Python
    # this package supports (on 3.10 pathlib holds its own io.open)
    opened = []

    def counted_open(self, *args, _open=Path.open, **kwargs):
        if str(self) in inputs:
            opened.append(str(self))
        return _open(self, *args, **kwargs)

    def rewritten_after(load):
        def loaded(path, *args):
            result = load(path, *args)
            fd = os.open(path, os.O_WRONLY | os.O_TRUNC)
            os.write(fd, b"rewritten\n")
            os.close(fd)
            return result
        return loaded

    monkeypatch.setattr(Path, "open", counted_open)
    for name in ("load_agent_series", "load_index_series", "load_top_performers"):
        monkeypatch.setattr(pipeline, name, rewritten_after(getattr(pipeline, name)))
    assert cli.main(["run", "--config", str(config), "--out", str(root / "second")]) == 0
    assert sorted(opened) == inputs
    assert (root / "second" / "run_manifest.json").read_bytes() == manifest
    assert {Path(p).read_bytes() for p in inputs} == {b"rewritten\n"}


def test_duplicate_measures_fail_the_run(fixture_tree, capsys):
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text() + "measures = afp, afp, afv\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: measures: duplicates\n"
    assert not (fixture_tree / "crypto" / "output").exists()


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


@pytest.mark.parametrize("removed", ["XCOIN", "YCOIN", "ZCOIN"])
def test_two_agent_correlations_stay_in_range(fixture_tree, removed):
    # r of two agents is +-1 exactly; rounding used to write 1.0000000000000002
    tree = fixture_tree / "crypto"
    (tree / "agents" / f"{removed}.csv").unlink()
    config = tree / "config.cfg"
    lines = config.read_text().splitlines(keepends=True)
    config.write_text("".join(x for x in lines if not x.startswith("top_performers_path")))
    assert cli.main(["run", "--config", str(config)]) == 0
    rows = (tree / "output" / "correlations.csv").read_text().splitlines()[1:]
    r = [float(row.split(",")[4]) for row in rows if row.split(",")[4]]
    assert len(rows) == 132 and r
    assert all(-1.0 <= value <= 1.0 for value in r)


@pytest.mark.parametrize("dump_panels", [False, True])
def test_a_symlinked_panels_is_unlinked_not_followed(fixture_tree, tmp_path, capsys,
                                                    dump_panels):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "precious.csv").write_text("kept\n")
    out.mkdir()
    (out / "panels").symlink_to(outside, target_is_directory=True)
    argv = ["run", "--config", str(config), *["--dump-panels"] * dump_panels]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert tree_bytes(outside) == {"precious.csv": b"kept\n"}
    assert cli.main([*argv, "--out", str(tmp_path / "clean")]) == 0
    assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


@pytest.mark.parametrize("dump_panels", [False, True])
def test_a_panels_file_fails_the_run_before_any_move(fixture_tree, capsys, dump_panels):
    config = fixture_tree / "crypto" / "config.cfg"
    out = fixture_tree / "crypto" / "output"
    assert cli.main(["run", "--config", str(config)]) == 0
    (out / "panels").write_text("kept\n")
    before = tree_bytes(out)
    # the rerun's distributions.csv and manifest would differ from the first's
    config.write_text(config.read_text() + "n_hist_bins = 7\n")
    assert cli.main(["run", "--config", str(config), *["--dump-panels"] * dump_panels]) == 1
    assert capsys.readouterr().err == (
        f"error: report path {out / 'panels'} must be a directory or absent: "
        "--dump-panels writes its files there\n")
    assert tree_bytes(out) == before


@pytest.mark.parametrize("dump_panels", [False, True])
@pytest.mark.parametrize("target", ["file", "directory"])
@pytest.mark.parametrize("name", [*REPORTS, "panels"])
def test_no_symlinked_report_path_reaches_outside_output_dir(fixture_tree, tmp_path, capsys,
                                                            name, target, dump_panels):
    config = fixture_tree / "crypto" / "config.cfg"
    argv = ["run", "--config", str(config), *["--dump-panels"] * dump_panels, "--out"]
    clean, out, outside = tmp_path / "clean", tmp_path / "out", tmp_path / "outside"
    assert cli.main([*argv, str(clean)]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    (outside / "dir").mkdir(parents=True)
    (outside / "dir" / "precious.csv").write_text("kept\n")
    (outside / "file.csv").write_text("kept\n")
    (out / name).unlink(missing_ok=True)
    (out / name).symlink_to(outside / ("dir" if target == "directory" else "file.csv"))
    before, outside_before = tree_bytes(out), tree_bytes(outside)
    capsys.readouterr()
    code = cli.main([*argv, str(out)])
    err = capsys.readouterr().err
    assert tree_bytes(outside) == outside_before
    if code == 0:
        assert err == ""
        assert tree_bytes(out) == tree_bytes(clean)
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert tree_bytes(out) == before


def test_reports_do_not_depend_on_the_hash_seed(fixture_tree, tmp_path):
    for market in ("stocks", "crypto"):
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{market}-{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "antifrag.cli", "run", "--config",
                 str(fixture_tree / market / "config.cfg"), "--dump-panels", "--out", str(out)],
                capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed))
            assert done.returncode == 0, done.stderr
            reports.append(tree_bytes(out))
        assert reports[0] == reports[1]


def test_agent_id_with_comma_fails_the_run(fixture_tree, capsys):
    agents = fixture_tree / "crypto" / "agents"
    (agents / "X,Y.csv").write_bytes((agents / "XCOIN.csv").read_bytes())
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config), "--workers", "1"]) == 1
    assert "agent id 'X,Y'" in capsys.readouterr().err
    assert not (fixture_tree / "crypto" / "output").exists()


def test_only_lower_case_csv_names_in_data_dir_are_read(fixture_tree, capsys):
    agents = fixture_tree / "crypto" / "agents"
    config = fixture_tree / "crypto" / "config.cfg"
    assert cli.main(["run", "--config", str(config)]) == 0
    reports = read_all(fixture_tree / "crypto" / "output")
    # entries of any other name are not read
    (agents / "notes.txt").write_text("not a quote file\n")
    (agents / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1")
    (agents / "sub").mkdir()
    capsys.readouterr()
    assert cli.main(["--verbose", "run", "--config", str(config)]) == 0
    assert "notes.txt" not in capsys.readouterr().err
    assert read_all(fixture_tree / "crypto" / "output") == reports
    # a .csv name in another letter case fails the run, as an unsafe id does
    (agents / "QCOIN.CSV").write_bytes((agents / "XCOIN.csv").read_bytes())
    assert cli.main(["--verbose", "run", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {agents / 'QCOIN.CSV'}: agent file name must end in lower-case .csv")
    assert read_all(fixture_tree / "crypto" / "output") == reports


@pytest.mark.parametrize("name", ["sub.csv", "dang.csv"])
def test_a_csv_entry_that_is_no_regular_file_fails_the_run(fixture_tree, capsys, name):
    agents = fixture_tree / "crypto" / "agents"
    if name == "sub.csv":
        (agents / name).mkdir()
    else:
        (agents / name).symlink_to(agents / "missing.csv")
    assert cli.main(["run", "--config", str(fixture_tree / "crypto" / "config.cfg")]) == 1
    assert capsys.readouterr().err == f"error: {agents / name}: agent file is not a regular file\n"
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
        "age_days, pct_dlt_pr, pct_dlt_vl, pct_pr_f_i, pct_vl_f_i, pr_mea, pr_std, vl_mea"
    )


def test_skipped_comparison_cases_are_one_warning_per_run(fixture_tree):
    # the top performer's year has no agent in the early window's cases
    root = fixture_tree / "stocks"
    (root / "top_performers.json").write_text('{"2014": ["CCC"]}\n')
    config = root / "config.cfg"
    config.write_text(config.read_text().replace(
        "windows = 2014", "windows = 2014, early:2014-01-01:2014-02-14"))
    done = run_in_subprocess(config)
    assert (done.returncode, done.stdout) == (0, "")
    early = ", ".join(f"early/{m}/{s}" for m in ("af3m", "afp", "afv", "afx") for s in range(3))
    assert done.stderr.splitlines() == [
        "WARNING antifrag.analysis: comparison skipped in 12 of 24 cases "
        f"(no top performer alive): {early}",
        "WARNING antifrag.pipeline: bins skipped in 24 of 24 cases (fewer than 5 agents "
        "defined): age_days, pct_dlt_pr, pct_dlt_vl, pct_pr_f_i, pct_vl_f_i, pr_mea, pr_std, "
        "vl_mea",
    ]


def test_agents_with_a_values_ulps_apart_get_finite_densities(fixture_tree):
    # a share class: YCOIN's quotes tripled. Each case's two A values are a
    # few ulps apart, so a histogram over their range alone has zero widths
    agents = fixture_tree / "crypto" / "agents"
    lines = (agents / "YCOIN.csv").read_text().splitlines()
    tripled = [",".join([d, *(repr(3 * float(v)) for v in rest)])
               for d, *rest in (line.split(",") for line in lines[1:])]
    (agents / "TRIPLE.csv").write_text("\n".join([lines[0], *tripled]) + "\n")
    for name in ("XCOIN.csv", "ZCOIN.csv"):
        (agents / name).unlink()
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text("market_kind = crypto\ndata_dir = agents\noutput_dir = output\n"
                      "windows = 2014\n")
    done = run_in_subprocess(config)
    assert (done.returncode, done.stdout) == (0, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("WARNING antifrag.pipeline: bins skipped in 12 of 12 cases")
    rows = (fixture_tree / "crypto" / "output" / "distributions.csv").read_text().splitlines()
    densities = [float(row.split(",")[7]) for row in rows[1:]]
    assert len(densities) == 12 * 50
    assert np.isfinite(densities).all()


def test_scatter_formats_each_value_once(fixture_tree, monkeypatch):
    calls = []
    real_fmt = pipeline.fmt
    real_render = pipeline._render_scatter
    calls_at_scatter_end = []

    def counted_fmt(value):
        calls.append(value)
        return real_fmt(value)

    def render(*args):
        yield from real_render(*args)
        calls_at_scatter_end.append(len(calls))

    monkeypatch.setattr(pipeline, "fmt", counted_fmt)
    monkeypatch.setattr(pipeline, "_render_scatter", render)
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
    # fmt is left for each r and comparison.json's four reals (the fraction,
    # both sums and the ratio); A and performance texts come from their tables
    assert (out / "comparison.json").is_file()
    r_values = len((out / "correlations.csv").read_text().splitlines()) - 1
    assert len(calls) == r_values + 4


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


def run_in_subprocess(config: Path) -> subprocess.CompletedProcess:
    """``antifrag run --config config`` in a fresh interpreter, as a user runs it."""
    return cli_in_subprocess("run", "--config", str(config))


@pytest.mark.parametrize("market, agent, column, values", [
    ("crypto", "XCOIN", "market_cap", ["1e308"]),
    ("stocks", "AAA", "open", ["1e160", "0.0"]),
])
def test_value_above_1e100_is_one_error_line(fixture_tree, market, agent, column, values):
    path = fixture_tree / market / "agents" / f"{agent}.csv"
    set_column(path, column, values)
    done = run_in_subprocess(fixture_tree / market / "config.cfg")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {path}: line 2: {column} value above 1e+100"
    ]


@pytest.mark.parametrize("column, value", [
    ("open", "-1"),
    ("volume", "1e+101"),
    ("market_cap", "nan"),
])
def test_bad_value_before_every_window_is_one_error_line(fixture_tree, column, value):
    # lines 2 and 3 lie before the window: a load for the window converts
    # only line 2, the earliest, once every other line checks out
    config = fixture_tree / "crypto" / "config.cfg"
    config.write_text(config.read_text().replace("windows = 2014",
                                                 "windows = spring:2014-03-03:2014-05-30"))
    path = fixture_tree / "crypto" / "agents" / "XCOIN.csv"
    header, *rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[header.split(",").index(column)] = value
    rows[1] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(IngestionError) as full_load:
        load_agent_series(path, "crypto")
    assert f"{path}: line 3: " in str(full_load.value)
    done = run_in_subprocess(config)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: {full_load.value}"]


def test_oversized_cell_is_one_error_line(fixture_tree):
    # longer than csv.reader's default field limit of 131,072 characters
    path = fixture_tree / "stocks" / "agents" / "AAA.csv"
    set_column(path, "volume", ["1000.0", "1" * 140_000])
    done = run_in_subprocess(fixture_tree / "stocks" / "config.cfg")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: {path}: line 3: non-finite volume value"]


def put_stray_byte(path: Path, line: int, ending: bytes, bom: bool = False) -> None:
    """Rewrite ``path`` with ``ending`` line ends, a byte-order mark first when
    ``bom``, and a \\xff byte, which is not UTF-8, at the end of line ``line``."""
    lines = path.read_bytes().splitlines()
    lines[line - 1] += b"\xff"
    path.write_bytes((codecs.BOM_UTF8 if bom else b"") + ending.join(lines) + ending)


@pytest.mark.parametrize("market, name, line, ending, bom", [
    ("stocks", "agents/BBB.csv", 3, b"\r\n", True),
    ("stocks", "indexes/vix.csv", 4, b"\r", False),
    ("crypto", "top_performers.json", 3, b"\n", False),
    ("crypto", "top_performers.json", 2, b"\r\n", True),
    ("crypto", "config.cfg", 2, b"\r\n", False),
    ("crypto", "config.cfg", 1, b"\n", True),
])
def test_non_utf8_input_is_one_error_line(fixture_tree, market, name, line, ending, bom):
    path = fixture_tree / market / name
    put_stray_byte(path, line, ending, bom)
    done = run_in_subprocess(fixture_tree / market / "config.cfg")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {path}: line {line}: not UTF-8 (invalid start byte)"
    ]


def test_byte_order_marks_are_ignored(fixture_tree, capsys):
    root = fixture_tree / "crypto"
    config, _, _ = load_config(root / "config.cfg")
    plain = pipeline.execute(config)
    for name in ("config.cfg", "top_performers.json", "agents/XCOIN.csv"):
        (root / name).write_bytes(codecs.BOM_UTF8 + (root / name).read_bytes())
    assert cli.main(["validate", "--config", str(root / "config.cfg")]) == 0
    assert capsys.readouterr().out == "0 errors\n"
    config, _, _ = load_config(root / "config.cfg")
    texts = pipeline.execute(config)
    # the same reports; the manifest differs in the digests of the changed files only
    manifests = [json.loads(t.pop("run_manifest.json")) for t in (texts, plain)]
    assert texts == plain
    changed = {"agents/XCOIN.csv", "top/top_performers.json"}
    for manifest in manifests:
        assert changed <= manifest["input_digests"].keys()
        manifest["input_digests"] = {k: v for k, v in manifest["input_digests"].items()
                                     if k not in changed}
    assert manifests[0] == manifests[1]


def test_validate_reports_a_non_utf8_config(fixture_tree, capsys):
    config = fixture_tree / "stocks" / "config.cfg"
    put_stray_byte(config, 4, b"\r")
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: {config}: line 4: not UTF-8 (invalid start byte)",
        "1 errors",
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
