"""Counter-based perf smoke check for CI.

Runs the small figure-10 grid through the ``runtime`` sweep task and
compares the deterministic hot-path **op counters** (scheduler cycles,
annealing evaluations, partitioner moves, mapper probes — see
:mod:`repro.utils.counters`) against the committed baseline in
``benchmarks/results/perf_smoke_counters.json``.

Op counts are exact functions of the input for a fixed seed, so the check
is immune to CI machine noise: a change that reintroduces a quadratic
rescan shows up as a counter jump even when wall-clock jitter would hide
it.  The check fails when any counter regresses by more than
``TOLERANCE`` (counters may also *drop* freely — improvements only ratchet
the baseline down when it is regenerated).

A 64-qubit line instance additionally pins the op counters of a large
sparse-interconnect compile (relay scheduling, BDIR re-route moves, one
kernel evaluation per annealing iteration).

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py            # check
    PYTHONPATH=src python benchmarks/perf_smoke.py --update   # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BASELINE_PATH = pathlib.Path(__file__).parent / "results" / "perf_smoke_counters.json"

#: Allowed relative growth per counter before the check fails.
TOLERANCE = 0.10
#: Absolute slack for tiny counters where one extra call is not a regression.
ABSOLUTE_SLACK = 8

#: The grid the smoke check compiles (kept small: seconds on CI).
QFT_SIZES = (8, 12)
NUM_QPUS = 8
SEED = 0

#: Instance size of the large line pin (figure-10's largest tier-1 row).
LINE_PIN_QUBITS = 64


def collect_counters() -> dict:
    """Compile the smoke grid and return the per-point op-counter table.

    The ``runtime`` task counts the timed compiler stages (partition,
    mapping, scheduling); the translate/compgraph prefix runs before its
    counter window (and may be served from the computation LRU), so the
    front end — signal shifting and the dependency build — is counted here
    explicitly with a fresh translation per instance.
    """
    # The check must measure real compiles, never a previous run's cache.
    os.environ.pop("DCMBQC_ARTIFACT_CACHE_DIR", None)
    os.environ.pop("DCMBQC_PIPELINE_DISABLE_CACHE", None)

    from repro.mbqc.dependency import build_dependency_graph
    from repro.mbqc.signal_shift import signal_shift
    from repro.mbqc.translate import circuit_to_pattern
    from repro.programs.registry import build_benchmark
    from repro.sweep import grids
    from repro.sweep.tasks import TASK_REGISTRY
    from repro.utils.counters import OP_COUNTERS

    table = {}
    for point in grids.figure10_grid(seed=SEED, qft_sizes=QFT_SIZES, num_qpus=NUM_QPUS):
        row = TASK_REGISTRY[point.task](point)
        counters = {
            name[len("ops_"):]: value
            for name, value in sorted(row.items())
            if name.startswith("ops_") and value
        }
        before = OP_COUNTERS.snapshot()
        pattern = circuit_to_pattern(
            build_benchmark(point.program, point.num_qubits, seed=point.circuit_seed)
        )
        shifted = signal_shift(pattern)
        dependency = build_dependency_graph(shifted)
        for name, value in OP_COUNTERS.delta_since(before).items():
            if value:
                counters[name.replace(".", "_")] = counters.get(
                    name.replace(".", "_"), 0
                ) + value
        counters["dependency_edges"] = dependency.num_edges
        table[f"qft-{row['qubits']}"] = counters

    # Sparse-interconnect point: a 4-QPU line exercises the pipelined
    # relay scheduler — route re-evaluations, store-and-forward buffer
    # conflicts, BDIR re-route/link-shift moves — which the
    # fully-connected figure-10 grid never touches.
    from repro.core.compiler import DCMBQCCompiler
    from repro.core.config import DCMBQCConfig
    from repro.programs.registry import paper_grid_size
    from repro.sweep.cache import build_computation

    computation = build_computation("QFT", QFT_SIZES[-1], SEED)
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=paper_grid_size(QFT_SIZES[-1]),
        topology="line",
        seed=SEED,
    )
    before = OP_COUNTERS.snapshot()
    DCMBQCCompiler(config).compile_run(computation, store=None, use_cache=False)
    table[f"qft-{QFT_SIZES[-1]}-line"] = {
        name.replace(".", "_"): value
        for name, value in sorted(OP_COUNTERS.delta_since(before).items())
        if value
    }

    # Large line instance: a 64-qubit QFT on the same 4-QPU line.
    computation = build_computation("QFT", LINE_PIN_QUBITS, SEED)
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=paper_grid_size(LINE_PIN_QUBITS),
        topology="line",
        seed=SEED,
    )
    before = OP_COUNTERS.snapshot()
    DCMBQCCompiler(config).compile_run(computation, store=None, use_cache=False)
    table[f"qft-{LINE_PIN_QUBITS}-line"] = {
        name.replace(".", "_"): value
        for name, value in sorted(OP_COUNTERS.delta_since(before).items())
        if value
    }
    return table


def check_zero_overhead(reference: dict) -> list:
    """Guard the disabled-observability fast path.

    With tracer and resource sampler both off, a second collection
    pass must produce an op-counter table byte-identical to ``reference``.
    Any drift means an instrumentation layer leaked ops (or state) into the
    hot path while disabled.
    """
    from repro.obs.resources import RESOURCES
    from repro.obs.trace import TRACER

    problems = []
    if TRACER.enabled:
        problems.append("tracer unexpectedly enabled during perf smoke")
    if RESOURCES.enabled:
        problems.append("resource sampler unexpectedly enabled during perf smoke")
    if problems:
        return problems
    second = collect_counters()
    if json.dumps(reference, sort_keys=True) != json.dumps(second, sort_keys=True):
        problems.append(
            "op-counter tables differ between identical runs with "
            "observability disabled — the disabled path is not zero-overhead"
        )
    return problems


def compare(baseline: dict, current: dict) -> list:
    """Return a list of human-readable regression descriptions."""
    regressions = []
    for instance, base_counters in sorted(baseline.items()):
        seen = current.get(instance)
        if seen is None:
            regressions.append(f"{instance}: missing from current run")
            continue
        for name, base_value in sorted(base_counters.items()):
            value = seen.get(name, 0)
            limit = max(base_value * (1.0 + TOLERANCE), base_value + ABSOLUTE_SLACK)
            if value > limit:
                regressions.append(
                    f"{instance}: {name} = {value} exceeds baseline "
                    f"{base_value} by more than {TOLERANCE:.0%} (limit {limit:.0f})"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline"
    )
    args = parser.parse_args(argv)

    current = collect_counters()
    if args.update:
        BASELINE_PATH.write_text(
            json.dumps(
                {"qft_sizes": list(QFT_SIZES), "num_qpus": NUM_QPUS, "seed": SEED,
                 "tolerance": TOLERANCE, "counters": current},
                indent=1,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"error: no baseline at {BASELINE_PATH}; run with --update", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    regressions = compare(baseline["counters"], current)
    for line in regressions:
        print(f"REGRESSION {line}", file=sys.stderr)
    if regressions:
        return 1
    overhead = check_zero_overhead(current)
    for line in overhead:
        print(f"OVERHEAD {line}", file=sys.stderr)
    if overhead:
        return 1
    total = sum(sum(c.values()) for c in current.values())
    print(
        f"perf smoke OK: {len(current)} instances, "
        f"{total} hot-path ops within {TOLERANCE:.0%} of baseline; "
        f"zero-overhead guard held (obs disabled, counters byte-identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
