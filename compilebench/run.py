"""Outside-in compile benchmark of the DC-MBQC compiler.

Usage, from the repository root::

    python3 compilebench/run.py --workload qft64-fc8 --seed 0 --seconds 56 --trace 0

Runs one workload as a closed loop (one process, one compile at a time)
for ``--seconds``, checks every compile by independent paths, writes the
run table to ``compilebench/results/`` and prints a summary whose last line
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``RUN_TABLE.md`` explains the
workloads, the table's columns and every metric.
"""

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh interpreters that each time one set-up; setup_s is their median.
#: Imports are most of a set-up and run once per process, so only a new
#: process repeats them.  They run between the measured rounds, so their
#: median samples the host over the whole run, as the compiles do.
SETUP_REPEATS = 5

_SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
run.setup({workload!r}, {seed})
print(time.perf_counter() - start)
"""

#: Row columns that must repeat exactly for every op of a point within a
#: run: the compile's outcome, its stage keys and statuses, and its
#: op-counter deltas.  Across runs only τ and makespan are compared: a
#: performance change may change keys and counters, never these two.
_RESULT_COLUMNS = ("tau", "makespan")
_REPEATED_SUFFIXES = ("_key", "_status")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload_name: str, seed: int):
    """Import the compiler, build the workload's inputs and system models,
    and warm up with one small compile."""
    from ops import compile_op, reset_caches
    from workloads import WORKLOADS, Point

    from repro.programs import build_benchmark

    points = WORKLOADS[workload_name].points(seed)
    for point in points:
        point.config.system_model()
    warm = Point("warm-up", build_benchmark("QFT", 8), points[0].config)
    compile_op(warm, {})
    reset_caches()
    return points


def _setup_seconds(workload_name: str, seed: int) -> float:
    """Wall seconds of :func:`setup` in a fresh interpreter."""
    probe = _SETUP_PROBE.format(
        bench=str(BENCH_DIR), src=str(SRC_DIR), workload=workload_name, seed=seed
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.split()[-1])


def _repeated(row: Dict[str, object]) -> Dict[str, object]:
    return {
        name: value
        for name, value in row.items()
        if name in _RESULT_COLUMNS or name.endswith(_REPEATED_SUFFIXES) or name.startswith("ops.")
    }


def _drift(rows: List[Dict[str, object]], expected_path: Path) -> List[str]:
    """Points whose outcome changed between repetitions, or τ/makespan between runs."""
    problems = []
    seen: Dict[str, Dict[str, object]] = {}
    for row in rows:
        if row["error"]:
            continue
        repeated = _repeated(row)
        first = seen.setdefault(str(row["point"]), repeated)
        changed = sorted(name for name in first.keys() | repeated.keys()
                         if first.get(name) != repeated.get(name))
        if changed:
            problems.append(f"{row['point']} round {row['round']}: {', '.join(changed)} changed")
    recorded = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    for point, repeated in seen.items():
        result = {name: repeated[name] for name in _RESULT_COLUMNS}
        if recorded.setdefault(point, result) != result:
            problems.append(f"{point}: tau/makespan {result} differ from an earlier run "
                            f"of this seed ({recorded[point]})")
    expected_path.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    return problems


def _write_table(rows: List[Dict[str, object]], path: Path) -> None:
    columns: List[str] = []
    for row in rows:
        columns.extend(name for name in row if name not in columns)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _print_summary(rows, metrics: Dict[str, float], units: Dict[str, str], trace: int) -> None:
    from summary import spread, uncovered_by_layer

    untraced = [row for row in rows if row["kind"] == "untraced" and not row["error"]]
    if untraced:
        median, low, high = spread([float(row["wall_s"]) for row in untraced])
        points = len({row["point"] for row in untraced})
        print(
            f"compile wall: median {median:.4f} s, quartiles {low:.4f}-{high:.4f} s, "
            f"{len(untraced)} untraced compiles of {points} points"
        )
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    if trace:
        for stage, seconds in uncovered_by_layer(rows):
            print(f"uncovered by traced layers: {stage:12s} {seconds:+.4f} s per round")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"compilebench: no compiler sources at {SRC_DIR}", file=sys.stderr)
        return 2
    # Before repro is imported: no artifact store, cache bypass, memo size
    # or debug check may be set from outside.  The program's tracer, event
    # log and resource sampler stay off: only an explicit call enables them.
    for name in [name for name in os.environ if name.startswith(("DCMBQC_", "REPRO_"))]:
        del os.environ[name]
    sys.path.insert(0, str(SRC_DIR))

    import summary
    from layers import LayerClock, install
    from ops import compile_op, reset_caches
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"compilebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    points = setup(workload.name, args.seed)

    if args.trace:
        install()
    rows: List[Dict[str, object]] = []
    setup_samples: List[float] = []
    round_seconds: List[float] = []
    rounds = 0
    # Closed loop over whole rounds; a round starts only if a round of
    # median length still ends within --seconds of measuring (a traced run
    # needs one untraced and one traced round at least).
    while rounds < 1 + args.trace or sum(round_seconds) + statistics.median(round_seconds) <= args.seconds:
        if len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(_setup_seconds(workload.name, args.seed))
        round_started = time.perf_counter()
        kind = "traced" if args.trace and rounds % 2 else "untraced"
        if not workload.cold:
            reset_caches()
        for point in points:
            if workload.cold:
                reset_caches()
            row: Dict[str, object] = {
                "workload": workload.name,
                "seed": args.seed,
                "trace_run": args.trace,
                "kind": kind,
                "round": rounds,
                "point": point.label,
                "error": "",
            }
            try:
                compile_op(point, row, LayerClock() if kind == "traced" else None)
            except Exception as exc:  # a failed op is counted, never fatal
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        round_seconds.append(time.perf_counter() - round_started)
        rounds += 1
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(_setup_seconds(workload.name, args.seed))
    setup_s = statistics.median(setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    _write_table(rows, RESULTS_DIR / f"{stem}-trace{args.trace}.csv")
    failed = sum(1 for row in rows if row["error"])
    for row in rows:
        if row["error"]:
            print(f"FAILED {row['kind']} {row['point']} round {row['round']}: {row['error']}")
    drift = _drift(rows, RESULTS_DIR / f"{stem}-expected.json")
    for problem in drift:
        print(f"DRIFT {problem}")

    if args.trace:
        metrics, units = summary.per_layer(rows), summary.PER_LAYER
    else:
        metrics, units = summary.end_to_end(rows, setup_s, peak_rss_mb), summary.END_TO_END
    _print_summary(rows, metrics, units, args.trace)
    print(f"ops failed: {failed} of {len(rows)} attempted")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not drift,
                "attempted": len(rows),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
