"""End-to-end and per-layer benchmark of the antifrag CLI.

    python3 perfbench/run.py --workload stock-8y --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30

One run generates the workload's inputs from the seed (untimed), makes one
traced serial run of ``antifrag run`` (the warm-up, the reference reports and
the spans), then repeats ``python -m antifrag.cli run`` into an emptied
output directory for ``--seconds`` seconds. With ``--trace 0`` the repeated
runs use the workload's own ``worker_count`` and give the end-to-end
metrics; their times are scaled to a reference host speed, measured by the
fixed work of ``calibrate.py`` run between them. With ``--trace 1``
they are forced serial and, with the spans, give the per-layer metrics.
Every repeated run must exit 0 and reproduce the reference reports byte for
byte; the reference is checked against ``tests/oracle.py`` on one (window,
scale) case, and for the default seed against the SHA-256 digests in
``perfbench/digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run's context (machine, versions, seed, input size). ``--all`` runs every
workload in both modes and prints a table instead. Scratch files live under
``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
MIN_RUNS = 3  # enough for quartiles
TOLERANCE = 1e-9  # the acceptance suite's oracle tolerance
# the generated configs name no measures, so every measure of the kind runs
MEASURES = {"stock": ("af3m", "afp", "afv", "afx"), "crypto": ("afm", "afn", "afp", "afv")}

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TIMES = ("run_s", "cpu_s", "setup_s")  # scaled to the reference host speed
# Wall time of calibrate.py at the reference host speed: about its median on
# the 2-vCPU VM the figures in README.md come from.
REFERENCE_CALIBRATION_S = 0.3

# Each layer's metrics; which end-to-end metric each should move, and where,
# is listed in perfbench/README.md.
LAYERS = {
    "ingestion.load": ("busy_s", "calls", "rows", "mb_read", "maxrss_mb"),
    "ingestion.slice": ("busy_s", "calls", "kept_frac"),
    "resampling.build_panel": ("busy_s", "calls", "agents_in", "alive_frac", "periods"),
    "measures.compute_measures": ("busy_s", "calls", "results", "excluded"),
    "performance.compute_performance": ("busy_s", "calls"),
    "analysis": ("busy_s", "calls", "scatter_rows"),
    "pipeline.execute": ("self_s", "mb_rendered"),
    "pipeline.write": ("self_s", "files"),
}
UNITS = {
    "busy_s": "s", "self_s": "s", "calls": "count", "rows": "count", "mb_read": "MB",
    "maxrss_mb": "MB", "kept_frac": "frac", "agents_in": "count",
    "alive_frac": "frac", "periods": "count", "results": "count",
    "excluded": "count", "scatter_rows": "count", "mb_rendered": "MB", "files": "count",
}
PER_LAYER = {f"{layer}.{m}": UNITS[m] for layer, names in LAYERS.items() for m in names}
PER_LAYER.update({
    "pipeline.serial_run_s": "s",
    "pipeline.pool_speedup": "ratio",
    "trace.total_s": "s",
    "trace.overhead_frac": "frac",
    "trace.absent_layers": "count",
    "cli.stderr_lines": "count",
})


@dataclass
class Proc:
    """One finished CLI process, measured from outside."""

    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr_lines: int


def spawn(argv: list[str], stderr_path: Path) -> Proc:
    """Run a process to completion; wall time, and CPU and peak RSS from wait4.

    wait4's rusage covers the child and every descendant it waited for, so
    pool workers' CPU is included and ru_maxrss is the largest of them. The
    kernel also carries this process's own peak RSS into the child's
    ru_maxrss at exec, so this process keeps out numpy, the oracle and whole
    report files until its timed runs are done; ``bench_maxrss_mb`` in the
    context shows that it stayed below the runs' figure.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as err:
        lines = sum(1 for _ in err)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6, lines)


def report_digests(out_dir: Path, work: Path) -> dict[str, str]:
    """SHA-256 of every report under out_dir.

    run_manifest.json records the absolute input paths, so the work
    directory is replaced by ``<work>`` before hashing it. The other reports
    are hashed in chunks, so that this process stays smaller than the runs
    it measures (see spawn).
    """
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "run_manifest.json":
            data = path.read_bytes().replace(str(work).encode(), b"<work>")
            digest = hashlib.sha256(data)
        else:
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256")
        digests[path.relative_to(out_dir).as_posix()] = digest.hexdigest()
    return digests


def _window_bounds(w: Workload, label: str) -> tuple[str, str]:
    for spec in w.windows:
        parts = spec.split(":")
        if parts[0] == label:
            return (parts[1], parts[2]) if len(parts) == 3 else (f"{label}-01-01", f"{label}-12-31")
    raise KeyError(label)


def _read_rows(path: Path, first: str, last: str) -> list[tuple]:
    """(date, value, ...) rows of one input CSV dated within [first, last]."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        if first <= fields[0] <= last:
            values = [float(f) if f else None for f in fields[1:]]
            rows.append((dt.date.fromisoformat(fields[0]), *values))
    return rows


def oracle_problems(w: Workload, inputs: Path, ref_dir: Path) -> list[str]:
    """Compare one (window, scale) case of the reference reports with the oracle.

    Returns the first five mismatches, if any.
    """
    sys.dont_write_bytecode = True  # import the oracle read-only
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)

    label, scale = w.oracle_case
    first, last = _window_bounds(w, label)
    agents = {p.stem: _read_rows(p, first, last) for p in (inputs / "agents").glob("*.csv")}
    if w.kind == "stock":  # the oracle takes (date, open, volume, cap) rows
        agents = {aid: [(*r, None) for r in rows] for aid, rows in agents.items()}
    indexes = {p.stem.upper(): _read_rows(p, first, last)
               for p in (inputs / "indexes").glob("*.csv")}
    want = oracle.oracle_compute(agents, indexes, w.kind, scale,
                                 dt.date.fromisoformat(first), dt.date.fromisoformat(last),
                                 MEASURES[w.kind])["results"]

    got: dict[tuple[str, str], tuple[float, int]] = {}
    lines = (ref_dir / "antifragility.csv").read_text().splitlines()
    for line in lines[1:]:
        aid, measure, row_scale, window, global_a, n_used = line.split(",")
        if window == label and int(row_scale) == scale:
            got[(measure, aid)] = (float(global_a), int(n_used))
    expected = {(m, aid): (v[0], v[1]) for m, per in want.items() for aid, v in per.items()}
    problems = []
    if set(got) != set(expected):
        problems.append(f"oracle: {label}/s{scale}: {len(got)} results, oracle has {len(expected)}")
    for key in sorted(set(got) & set(expected)):
        (a, n), (b, m) = got[key], expected[key]
        if n != m or abs(a - b) > max(TOLERANCE, TOLERANCE * abs(b)):
            problems.append(f"oracle: {label}/s{scale}/{key}: got ({a!r}, {n}), want ({b!r}, {m})")
    return problems[:5]


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and absent layers from the spans and counters of a traced run.

    A layer's busy time is the duration of its outermost spans; its self time
    subtracts the time its child spans cover (children run one at a time).
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent is None or spans[parent][0] != name:
            busy[name] = busy.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_time[i]
    counters = trace["counters"]
    metrics: dict[str, float] = {}
    absent = []
    for layer, names in LAYERS.items():
        c = counters.get(layer, {})
        calls = c.get("calls", 0)
        if not calls:
            absent.append(layer)
        derived = {
            "busy_s": busy.get(layer, 0.0),
            "self_s": own.get(layer, 0.0),
            "calls": calls,
            "kept_frac": c.get("kept", 0) / calls if calls else 0.0,
            "alive_frac": c.get("alive", 0) / c["agents_in"] if c.get("agents_in") else 0.0,
        }
        for m in names:
            metrics[f"{layer}.{m}"] = derived[m] if m in derived else c.get(m, 0)
    return metrics, absent


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def bench(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, its context, and the reference digests."""
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    inputs, ref_dir, out_dir = work / "inputs", work / "ref", work / "out"
    gen = subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload", w.name,
                          "--seed", str(seed), "--out", str(inputs)],
                         capture_output=True, text=True)
    if gen.returncode != 0:
        raise SystemExit(f"perfbench: generating {w.name} failed:\n{gen.stderr}")
    sizes = json.loads(gen.stdout)
    cfg = inputs / "config.cfg"
    work = work.resolve()
    cli = [sys.executable, "-m", "antifrag.cli"]
    problems: list[str] = []

    # Traced serial run: warms the page cache and gives reference reports and spans.
    spans_path = work / "spans.json"
    traced = spawn([sys.executable, str(HERE / "trace_run.py"),
                    str(spans_path), "run", "--config", str(cfg), "--out", str(ref_dir),
                    "--workers", "1"], work / "traced.stderr")
    if traced.exit_code != 0:
        problems.append(f"traced run exited {traced.exit_code}: "
                        + (work / "traced.stderr").read_text()[-500:])
    reference = report_digests(ref_dir, work) if ref_dir.exists() else {}
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(w.name)
        if recorded is not None and recorded != reference:
            diff = sorted(k for k in set(recorded) | set(reference)
                          if recorded.get(k) != reference.get(k))
            problems.append(f"reports differ from recorded digests: {', '.join(diff)}")

    # Timed runs. In end-to-end mode they use the workload's own worker count,
    # each preceded by calibrate.py and a `validate`, so calibration and set-up
    # samples cover the same stretch of time. In per-layer mode they are
    # serial; on a pooled workload each serial run is paired with a pooled one,
    # so the pool's speed-up is a ratio of neighbouring runs rather than of two
    # windows far apart.
    run_argv = cli + ["run", "--config", str(cfg), "--out", str(out_dir)]
    runs: list[Proc] = []
    pooled: list[Proc] = []
    variants = [(run_argv, runs)]
    if trace:
        variants = [(run_argv + ["--workers", "1"], runs)]
        if w.worker_count > 1:
            variants.append((run_argv, pooled))
    setup: list[float] = []
    calibration: list[float] = []
    calibrate = [sys.executable, str(HERE / "calibrate.py")]

    def calibrate_once() -> float:
        p = spawn(calibrate, work / "calibrate.stderr")
        if p.exit_code != 0:
            problems.append(f"calibrate.py exited {p.exit_code}")
        return p.wall_s

    if not trace:
        calibrate_once()  # warm-up
    failed = 0
    deadline = time.perf_counter() + seconds
    # start another round while at least half of one still fits before the deadline
    while len(runs) < MIN_RUNS or deadline - time.perf_counter() > sum(
            kept[-1].wall_s for _, kept in variants) / 2:
        if not trace:
            calibration.append(calibrate_once())
            p = spawn(cli + ["validate", "--config", str(cfg)], work / "validate.stderr")
            if p.exit_code != 0:
                problems.append(f"validate exited {p.exit_code}")
            setup.append(p.wall_s)
        for argv, kept in variants:
            shutil.rmtree(out_dir, ignore_errors=True)
            p = spawn(argv, work / "run.stderr")
            kept.append(p)
            if p.exit_code != 0 or report_digests(out_dir, work) != reference:
                failed += 1
    if not trace:
        calibration.append(calibrate_once())  # closes the last round's bracket
    attempted = len(runs) + len(pooled)
    bench_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # a timed run is only correct if it matches a reference that passed every check
    if reference:
        problems += oracle_problems(w, inputs, ref_dir)
    if not reference or problems:
        failed = attempted
    if failed:
        problems.append(f"{failed} of {attempted} timed runs failed or differed from the reference")

    samples = {
        "run_s": [p.wall_s for p in runs],
        "cpu_s": [p.cpu_s for p in runs],
        "peak_rss_mb": [p.maxrss_mb for p in runs],
        "setup_s": setup,
        "stderr_lines": [p.stderr_lines for p in runs],
        "pooled_run_s": [p.wall_s for p in pooled],
        "calibration_s": calibration,
    }
    extra = {}
    if trace:
        spans = {"spans": [], "counters": {}, "unwrapped": [], "count_errors": []}
        if spans_path.exists():
            spans = json.loads(spans_path.read_text())
        metrics, absent = layer_metrics(spans)
        serial = statistics.median(samples["run_s"])
        metrics.update({
            "pipeline.serial_run_s": serial,
            "pipeline.pool_speedup": statistics.median(
                [one.wall_s / two.wall_s for one, two in zip(runs, pooled)] or [1.0]),
            "trace.total_s": traced.wall_s,
            "trace.overhead_frac": traced.wall_s / serial - 1.0,
            "trace.absent_layers": len(absent),
            "cli.stderr_lines": statistics.median(samples["stderr_lines"]),
        })
        units = PER_LAYER
        extra = {"absent_layers": absent, "unwrapped": spans["unwrapped"],
                 "count_errors": spans["count_errors"]}
    else:
        # Times at the reference host speed: each round's times are multiplied
        # by the reference calibration time over the mean of the calibrations
        # just before and just after the round, then the median is taken.
        speed = [REFERENCE_CALIBRATION_S * 2 / (before + after)
                 for before, after in zip(calibration, calibration[1:])]
        unscaled = {name: statistics.median(samples[name]) for name in END_TO_END}
        metrics = {name: statistics.median(v * f for v, f in zip(samples[name], speed))
                   if name in TIMES else unscaled[name] for name in END_TO_END}
        units = END_TO_END
        extra = {"unscaled": unscaled, "speed_factor": statistics.median(speed)}

    for path in (inputs, ref_dir, out_dir):
        shutil.rmtree(path, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    context = {
        "workload": w.name, "seed": seed, "trace": int(trace), **machine_context(),
        "runs_failed_frac": failed / attempted, **sizes, **extra,
        "bench_maxrss_mb": bench_maxrss_mb,
        "quartiles": {k: statistics.quantiles(v, n=4) for k, v in samples.items() if v},
        "problems": problems,
    }
    (work / "result.json").write_text(
        json.dumps({"context": context, "result": result, "samples": samples}, indent=1))
    return {"result": result, "context": context, "reference": reference}


def machine_context() -> dict:
    """Informational fields kept with every result; none of them is gated."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_commit": git_commit(),
            "src_lines": src_lines()}


def print_table(outcomes: list[dict]) -> None:
    """Every metric; end-to-end ones also with their unscaled median and quartiles."""
    for o in outcomes:
        c = o["context"]
        mode = "per-layer" if c["trace"] else "end-to-end"
        print(f"== {c['workload']} ({mode}, seed {c['seed']}): {o['result']['attempted']} runs, "
              f"{c['input_rows']} input rows, {c['input_mb']:.1f} MB")
        for name, m in o["result"]["metrics"].items():
            q = c["quartiles"].get(name)
            spread = ""
            if q and not c["trace"]:
                spread = (f"   unscaled {c['unscaled'][name]:.4g} "
                          f"[q1 {q[0]:.4g}, q3 {q[2]:.4g}]")
            print(f"  {name:40s} {m['value']:>12.6g} {m['unit']}{spread}")
        if not c["trace"]:
            print(f"  {'runs_failed_frac':40s} {c['runs_failed_frac']:>12.6g} frac")
            print(f"  {'speed_factor':40s} {c['speed_factor']:>12.6g} ratio")
        for problem in c["problems"]:
            print(f"  problem: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the seed-{DEFAULT_SEED} report digests of every workload")
    args = parser.parse_args()
    if not (SRC / "antifrag" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"perfbench: no antifrag sources or oracle under {ROOT}", file=sys.stderr)
        return 2

    if args.record_digests:
        recorded = {name: bench(w, DEFAULT_SEED, 0.0, True)["reference"]
                    for name, w in WORKLOADS.items()}
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        return 0
    if args.all:
        # each workload and mode in a process of its own, so that no earlier
        # one's memory counts in a later one's peak_rss_mb (see spawn)
        outcomes = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                context, result = map(json.loads, done.stdout.splitlines()[-2:])
                outcomes[(name, trace)] = {"context": context, "result": result}
        print_table(list(outcomes.values()))
        for name in WORKLOADS:
            layer = outcomes[(name, 1)]["result"]["metrics"]
            timed = outcomes[(name, 0)]["context"]["unscaled"]["run_s"]
            serial = layer["pipeline.serial_run_s"]["value"]
            print(f"{name}: unscaled run_s {timed:.4g} s, pipeline.serial_run_s {serial:.4g} s "
                  f"(serial / run_s {serial / timed:.3f}, from windows minutes apart); "
                  f"serial / pooled of paired runs {layer['pipeline.pool_speedup']['value']:.3f}")
        print(json.dumps({"seed": args.seed, **machine_context()}))
        return 0 if all(o["result"]["correct"] for o in outcomes.values()) else 1
    if args.workload is None:
        parser.error("--workload or --all is required")
    outcome = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome["context"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
