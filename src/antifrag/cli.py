"""Command line interface.

    antifrag run --config CFG [--workers N] [--out DIR] [--dump-panels]
    antifrag validate --config CFG
    antifrag fixture --out DIR

``run`` executes a full analysis and writes the report files; its
(window, scale) cases run one after another in one process, and
``--workers`` is accepted but has no effect. ``validate``
checks a config without touching any data files. ``fixture`` writes the
built-in synthetic dataset (stocks/ and crypto/ trees, each with a ready
config) for smoke testing. ``pipeline`` and ``fixture`` are imported only
by the commands that use them, so ``validate`` never imports numpy.
"""

from __future__ import annotations

import argparse
import logging
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
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

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

    # run
    try:
        config, errors, notes = load_config(args.config)
        for note in notes:
            logging.getLogger(__name__).info("%s", note)
        if errors:
            raise AntifragError(errors[0])
        if args.workers is not None:
            if args.workers < 0:
                raise AntifragError("--workers must be >= 0")
            config.worker_count = args.workers
        if args.out is not None:
            config.output_dir = args.out
        from . import pipeline

        pipeline.run(config, dump_panels=args.dump_panels)
    except (AntifragError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
