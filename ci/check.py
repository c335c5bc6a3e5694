"""The checks CI runs, one subcommand per workflow step, so that they run the
same way on a workstation.

    python ci/check.py compile
        Compile every source file with warnings as errors: each Python
        warns at compile time of what it deprecates (3.12 of an invalid
        escape in a string or regex), which pytest would show only on the
        first import. compileall writes .pyc files whatever
        PYTHONDONTWRITEBYTECODE says, so they go to PYTHONPYCACHEPREFIX, a
        temporary directory unless it is set. Needs neither numpy nor pytest.

    python [FLAGS] ci/check.py tier1 [PYTEST ARGS]
        The tier-1 tests, in this interpreter (so FLAGS such as
        ``-X dev -W error::ResourceWarning`` apply to them), with ``src`` on
        the path; then no bytecode in ``src/antifrag`` (the tests' child
        interpreters inherit PYTHONDONTWRITEBYTECODE) and a clean
        ``git status``: no test may rewrite a tracked file, a golden say, or
        leave an untracked one in the checkout.

    python ci/check.py console
        The installed ``antifrag`` script found on PATH, which runs
        ``cli.cli()``: that ends the process itself, and the tests reach it
        only through ``python -m antifrag.cli`` and ``-c``. In a temporary
        directory it writes the fixture, validates and runs both trees, and
        runs the crypto tree again with ``--dump-panels``, whose files go
        through the same piece writer into ``panels/``. Then a panel file
        must be non-empty, and no ``.antifrag-*`` staging directory may be
        left: ``os._exit`` must end no run before its staging directory is
        removed. Stops at the first failing call.

    python ci/check.py bench OUT
        Every workload BENCHMARK.json names, each run in a ``perfbench/run.py``
        process of its own: on seed 0 in both modes, whose reports must
        match ``perfbench/digests.json``, and timed on seed 7, inputs that no
        digest covers, where the oracle check and the byte-for-byte check
        of each rerun against the first are the only ones. Each run's
        standard output is printed when it ends, and each seed-0 run's
        result.json is copied to OUT/<workload>-trace<mode>.json before the
        next run of that workload replaces ``.bench_work/<workload>``. Fails
        after the last run if any run exited non-zero or read
        ``"correct": false``. Needs Python 3.11 (``hashlib.file_digest``);
        CI runs it with the newest and the oldest numpy it supports, as
        report bytes pass through numpy arrays.

Each exits 0 when its check passes, 1 when it fails, and 2, printing this
text, when called with no known subcommand.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ["src", "tests", "perfbench", "ci"]


def fail(message: str) -> int:
    print(f"check: {message}", file=sys.stderr)
    return 1


def compile_sources() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        env = {"PYTHONPYCACHEPREFIX": tmp, **os.environ}
        return subprocess.run([sys.executable, "-W", "error", "-m", "compileall", "-q", "-f",
                               *SOURCES], cwd=ROOT, env=env).returncode


def tier1(pytest_args: list[str]) -> int:
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    os.chdir(ROOT)
    import pytest

    code = int(pytest.main(["-q", "--continue-on-collection-errors", *pytest_args]))
    if (ROOT / "src" / "antifrag" / "__pycache__").exists():
        print("check: src/antifrag/__pycache__ exists", file=sys.stderr)
        code = code or 1
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout
    if status:
        print(f"check: the checkout is not clean:\n{status}", file=sys.stderr, end="")
        code = code or 1
    return code


def console() -> int:
    script = shutil.which("antifrag")
    if script is None:
        return fail("no antifrag script on PATH: install the package first "
                    "(python -m pip install --no-deps -e .)")
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fx"
        crypto = str(fixture / "crypto" / "config.cfg")
        calls = [["fixture", "--out", str(fixture)]]
        for market in ("stocks", "crypto"):
            config = str(fixture / market / "config.cfg")
            calls += [["validate", "--config", config], ["run", "--config", config]]
        calls.append(["run", "--config", crypto, "--dump-panels"])
        for call in calls:
            code = subprocess.run([script, *call]).returncode
            if code:
                return fail(f"antifrag {' '.join(call)} exited {code}")
        panel = fixture / "crypto" / "output" / "panels" / "2014_s0_price.csv"
        if not panel.is_file() or not panel.stat().st_size:
            return fail(f"{panel} is missing or empty")
        left = sorted(str(p) for p in fixture.rglob(".antifrag-*"))
        if left:
            return fail(f"staging directories left behind: {', '.join(left)}")
    return 0


def bench(out: Path) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = [(name, 0, trace) for name in workloads for trace in (0, 1)]
    runs += [(name, 7, 0) for name in workloads]
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name, seed, trace in runs:
        result = ROOT / ".bench_work" / name / "result.json"
        result.unlink(missing_ok=True)  # a run that fails early leaves none
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
             "--trace", str(trace), "--seconds", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        if seed == 0 and result.is_file():
            shutil.copyfile(result, out / f"{name}-trace{trace}.json")
        try:
            correct = json.loads(done.stdout.splitlines()[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            correct = False
        if done.returncode or not correct:
            failed.append(f"{name} seed {seed} trace {trace} "
                          f"(exit {done.returncode}, correct {correct})")
    if failed:
        return fail(f"{len(failed)} of {len(runs)} benchmark runs failed: {'; '.join(failed)}")
    return 0


def main(argv: list[str]) -> int:
    command, *args = argv or [None]
    if command == "compile" and not args:
        return compile_sources()
    if command == "tier1":
        return tier1(args)
    if command == "console" and not args:
        return console()
    if command == "bench" and len(args) == 1:
        return bench(Path(args[0]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
