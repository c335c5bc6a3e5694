"""The CI script and the workload list it reads.

``ci/check.py bench`` runs the workloads ``BENCHMARK.json`` names, and
``perfbench/run.py`` knows those ``perfbench/workloads.py`` defines: the two
lists must not drift apart.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_names_the_workloads_perfbench_defines(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("args", [[], ["unknown"], ["compile", "src"], ["console", "x"],
                                  ["bench"], ["bench", "a", "b"]])
def test_check_without_a_known_subcommand_prints_its_usage(args):
    done = subprocess.run([sys.executable, str(ROOT / "ci" / "check.py"), *args],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    for command in ("compile", "tier1", "console", "bench OUT"):
        assert f"ci/check.py {command}" in done.stderr
