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

Each exits 0 when its check passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ["src", "tests", "perfbench", "ci"]


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


def main(argv: list[str]) -> int:
    if argv[:1] == ["compile"] and len(argv) == 1:
        return compile_sources()
    if argv[:1] == ["tier1"]:
        return tier1(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
