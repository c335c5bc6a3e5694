"""Command line interface.

    antifrag run --config CFG [--workers N] [--out DIR] [--dump-panels]
    antifrag validate --config CFG
    antifrag fixture --out DIR

``run`` executes a full analysis and writes the report files; its
(window, scale) cases run one after another in one process, and
``--workers`` is accepted but has no effect. ``--out`` and ``--workers``
replace the config's ``output_dir`` and ``worker_count`` before the config
is checked, so a run is checked as it will run. ``validate``
checks a config without touching any data files. ``fixture`` writes the
built-in synthetic dataset (stocks/ and crypto/ trees, each with a ready
config) for smoke testing.

Each command imports only what it runs. ``pipeline`` and ``fixture`` (and
with them numpy) are imported by the commands that use them, and ``logging``
is imported and configured only by ``run``, the one command that logs. So
``validate`` imports neither numpy nor ``logging``, and no module of the
package generates class code at import (no ``dataclasses``, which would also
import ``inspect``).

``cli()``, the entry point of ``antifrag`` and ``python -m antifrag.cli``,
also trims the two ends of the process (README § Start-up and exit). It sets
``OPENBLAS_NUM_THREADS=1`` unless the caller set it, so the numpy that
``run`` and ``fixture`` import starts no BLAS worker thread to spin. And once
``main()`` has returned, every report is written, closed and in place: it
runs the exit handlers (``logging.shutdown`` among them), flushes stdout and
stderr and ends the process with ``os._exit``, skipping the interpreter's
teardown. ``main()`` does neither. Output nobody reads exits 120, silently;
any other exception or ``SystemExit`` that leaves ``main()`` (``--help``, a
usage error, a bug) exits the ordinary way.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import AntifragError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antifrag",
        description="Antifragility analytics over stock or cryptocurrency histories.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a full analysis run")
    run_p.add_argument("--config", required=True, type=Path)
    run_p.add_argument("--workers", type=int, default=None,
                       help="override worker_count; accepted, has no effect: "
                            "cases run in one process")
    run_p.add_argument("--out", type=Path, default=None,
                       help="override output_dir")
    run_p.add_argument("--dump-panels", action="store_true",
                       help="also export normalized panels for debugging")

    val_p = sub.add_parser("validate", help="check a config without reading data")
    val_p.add_argument("--config", required=True, type=Path)

    fix_p = sub.add_parser("fixture", help="write the built-in synthetic dataset")
    fix_p.add_argument("--out", required=True, type=Path)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fixture":
        from .fixture import write_fixture_tree

        configs = write_fixture_tree(args.out)
        for path in configs:
            print(path)
        return 0

    if args.command == "validate":
        try:
            _, errors, notes = load_config(args.config)
        except AntifragError as exc:
            errors, notes = [str(exc)], []
        for note in notes:
            print(f"note: {note}")
        for error in errors:
            print(f"error: {error}")
        print(f"{len(errors)} errors")
        return 0 if not errors else 1

    # run: the one command that logs
    import logging

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config, errors, notes = load_config(args.config, args.out, args.workers)
        for note in notes:
            logging.getLogger(__name__).info("%s", note)
        if errors:
            raise AntifragError(errors[0])
        from . import pipeline

        pipeline.run(config, dump_panels=args.dump_panels)
    except (AntifragError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli() -> None:
    # Nothing in antifrag calls BLAS: src/ has no dot, matmul, @ or linalg
    # call. OpenBLAS's worker threads would only spin; an empty setting starts them.
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        code = main()
    except BrokenPipeError:  # the reader of stdout has gone: as a failed flush below
        code = 120
    # Every report is written, closed and in place, and the package starts
    # no thread: the interpreter's teardown would only free memory.
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed at start
                stream.flush()
    except OSError:  # a closed pipe, a full disk: exit as the interpreter would
        code = 120
    os._exit(code)


if __name__ == "__main__":
    cli()
