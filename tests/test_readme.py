"""README's tables hold what the code does.

README states the contract once, and six of its tables restate names the
code defines: the commands and their options, the config keys, the time
scales, the measures per market, the report files and the performance
metrics. Each test here parses one table and checks it against the code,
so a table cannot go stale; README may hold no table that no test checks.
"""

import argparse
import re
from pathlib import Path

from antifrag import cli, pipeline
from antifrag.config import MEASURES_BY_KIND, RunConfig, TimeScale, load_config
from antifrag.fixture import write_fixture_tree
from antifrag.performance import PERF_VARIABLES

README = Path(__file__).resolve().parent.parent / "README.md"

HEADERS = {
    "commands": ("command", "what it does"),
    "keys": ("key", "meaning", "required"),
    "scales": ("code", "granularity", "period key"),
    "measures": ("market", "id", "perturbation source"),
    "reports": ("file", "contents"),
    "metrics": ("metric", "definition"),
}

# an option in a usage: "[" when optional, its name, and a value word if it takes one
USAGE_OPTION = re.compile(r"(\[?)(--[a-z-]+)( [A-Z]+)?")


def cells(line: str) -> tuple[str, ...]:
    """The cells of one table line; ``\\|`` is a pipe inside a cell."""
    return tuple(c.strip() for c in re.split(r"(?<!\\)\|", line.strip()[1:-1]))


def tables() -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """Each table of README by its header row: its body rows' cells."""
    found, lines = {}, README.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        if line.startswith("|") and not lines[k - 1].startswith("|"):
            rows = []
            for row in lines[k + 2:]:
                if not row.startswith("|"):
                    break
                rows.append(cells(row))
            found[cells(line)] = rows
    return found


def table(name: str) -> list[tuple[str, ...]]:
    return tables()[HEADERS[name]]


def code(cell: str) -> list[str]:
    """The texts in backquotes in a cell."""
    return re.findall(r"`([^`]*)`", cell)


def test_every_table_is_checked():
    assert sorted(tables()) == sorted(HEADERS.values())


def test_commands_and_options_are_the_parsers():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # option -> (required, takes a value)
    want = {name: {option: (action.required, action.nargs != 0)
                   for action in sub._actions for option in action.option_strings
                   if option not in ("-h", "--help")}
            for name, sub in commands.choices.items()}
    got = {}
    for usage, _ in table("commands"):
        name, _, options = code(usage)[0].partition(" ")
        got[name] = {option: (not bracket, bool(value))
                     for bracket, option, value in USAGE_OPTION.findall(options)}
    assert got == want
    text = README.read_text(encoding="utf-8")
    for action in parser._actions:
        for option in action.option_strings:
            assert option in ("-h", "--help") or f"`antifrag {option} COMMAND" in text


def test_config_keys_are_the_run_config_slots():
    keys = [code(key)[0] for key, _, _ in table("keys")]
    assert sorted(keys) == sorted(RunConfig.__slots__)


def test_time_scales_are_the_time_scale_codes():
    assert sorted((int(c), granularity) for c, granularity, _ in table("scales")) == [
        (scale.value, scale.name.lower()) for scale in TimeScale]


def test_measures_are_those_of_each_market_kind():
    assert sorted((market, code(m)[0]) for market, m, _ in table("measures")) == sorted(
        (kind, m) for kind, measures in MEASURES_BY_KIND.items() for m in measures)


def test_report_files_are_those_a_run_writes(tmp_path):
    config, _, _ = load_config(write_fixture_tree(tmp_path)[0])
    assert config.market_kind == "stock"
    assert config.top_performers_path is not None
    files = [code(name)[0] for name, _ in table("reports")]
    assert sorted(files) == sorted(pipeline.execute(config))


def test_metrics_are_the_performance_variables():
    names = [name for metrics, _ in table("metrics") for name in code(metrics)]
    assert sorted(names) == sorted(PERF_VARIABLES)
