"""Command-line interface for the DC-MBQC reproduction.

Seven subcommands cover the common workflows::

    python -m repro.cli compile --program QFT --qubits 16 --qpus 4
    python -m repro.cli compare --program VQE --qubits 16 --qpus 8 --rsg 4-ring
    python -m repro.cli experiment --name table3
    python -m repro.cli sweep --grid table3 --workers 8 --out results/table3
    python -m repro.cli sweep status results/table3/results.jsonl
    python -m repro.cli trace summarize out.json --json
    python -m repro.cli trace flamegraph out.json --out out.collapsed
    python -m repro.cli obs report --trace out.json --metrics metrics.json
    python -m repro.cli bench diff old/BENCH_figure10.json new/BENCH_figure10.json

``compile`` runs the distributed compiler and prints the schedule summary,
``compare`` additionally compiles the monolithic baseline and reports the
improvement factors, ``experiment`` regenerates one of the paper's tables or
figures in-process, and ``sweep`` evaluates the same grids through the
parallel sweep engine with a resumable on-disk result store (re-running the
same command skips every completed point; ``--csv`` exports the run table).

The run-health flags (``compile`` and ``sweep``) feed :mod:`repro.obs`:
``--trace [PATH]`` records a span trace and exports it as Chrome trace-event
JSON; ``--metrics [PATH]`` dumps the metrics registry (histogram buckets
included) as JSON; ``--trace-resources`` / ``--trace-malloc`` annotate spans
with RSS/CPU deltas and tracemalloc peaks.  ``trace summarize`` renders an
exported trace as a text tree plus a self-time table (``--json`` for the
machine-readable form), ``trace flamegraph`` emits collapsed stacks for
flamegraph.pl/speedscope, ``obs report`` merges the trace and the metrics
dump (histogram quantiles included) into one markdown run report, ``sweep
status`` digests a result store into a health summary (failure rate,
duration quantiles, stragglers, tracebacks), and ``bench diff`` compares two
``BENCH_*.json`` perf trajectories, exiting non-zero on op-counter
regressions.

``compile`` and ``sweep`` route through the staged compilation pipeline
(:mod:`repro.pipeline`): ``--cache-dir`` points the content-addressed
artifact cache at a directory (overriding ``DCMBQC_ARTIFACT_CACHE_DIR``),
``--no-cache`` disables it, and ``--json`` emits a machine-readable summary
including per-stage cache hit/miss counts.

``compile``, ``compare`` and ``sweep`` accept the system-model flags:
``--topology`` picks a named interconnect (line, ring, star, 2D grid,
torus) and ``--system-spec path.json`` loads a full custom system — per-QPU
grid sizes / resource states / K_max plus an explicit link list — so
topology ablations and heterogeneous fleets are reachable from the shell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.core import DCMBQCCompiler, DCMBQCConfig, compare_with_baseline
from repro.hardware.qpu import InterconnectTopology
from repro.obs.bench_diff import DEFAULT_SLACK, DEFAULT_TOLERANCE, diff_bench_files
from repro.obs.export import (
    collapsed_stacks,
    load_chrome_trace,
    render_span_tree,
    render_top_spans,
    summarize_trace,
    write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.metrics import METRICS, check_dump
from repro.obs.report import build_report
from repro.obs.resources import RESOURCES, RESOURCES_ENV, TRACEMALLOC_ENV
from repro.obs.trace import DETERMINISTIC_ENV, TRACE_ENV, TRACER
from repro.hardware.resource_states import ResourceStateType
from repro.pipeline import CACHE_DIR_ENV, CACHE_DISABLE_ENV, resolve_store
from repro.programs import build_benchmark
from repro.programs.registry import benchmark_names, paper_grid_size
from repro.reporting import experiments, render
from repro.sweep import GRID_REGISTRY, ResultStore, SweepRunner
from repro.utils.errors import ValidationError

__all__ = ["main", "build_parser", "EXPERIMENT_REGISTRY"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One entry of the experiment registry.

    Attributes:
        driver: ``(scale, system_overrides) -> rows`` function producing the
            artefact's data; ``system_overrides`` is ``None`` or the
            serialised ``--topology``/``--system-spec`` description, which
            grid-backed drivers pin onto their parameter grid (static
            tables ignore it).
        renderer: ``rows -> str`` function producing the paper-style table.
    """

    driver: Callable[[experiments.BenchmarkScale, Optional[Dict[str, object]]], Sequence]
    renderer: Callable[[Sequence], str]


#: Experiment name → (driver, renderer); single source of truth for the
#: ``experiment --name`` dispatch and reused for the ``sweep --grid`` choices.
EXPERIMENT_REGISTRY: Dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(
        lambda scale, system=None: experiments.table1_rows(), render.render_table1
    ),
    "table2": ExperimentSpec(
        lambda scale, system=None: experiments.table2_rows(scale),
        render.render_table2,
    ),
    "table3": ExperimentSpec(
        lambda scale, system=None: experiments.table3_rows(
            scale, system_overrides=system
        ),
        lambda rows: render.render_comparison_table(
            rows, "Table III — 4 QPUs, 5-star RSG, vs OneQ"
        ),
    ),
    "table4": ExperimentSpec(
        lambda scale, system=None: experiments.table4_rows(
            scale, system_overrides=system
        ),
        lambda rows: render.render_comparison_table(
            rows, "Table IV — 8 QPUs, 4-ring RSG, vs OneQ"
        ),
    ),
    "table5": ExperimentSpec(
        lambda scale, system=None: experiments.table5_rows(
            scale, system_overrides=system
        ),
        lambda rows: render.render_series(rows, "Table V — vs OneAdapt"),
    ),
    "table6": ExperimentSpec(
        lambda scale, system=None: experiments.table6_rows(system_overrides=system),
        render.render_table6,
    ),
    "table7": ExperimentSpec(
        lambda scale, system=None: experiments.table7_rows(
            scale, system_overrides=system
        ),
        render.render_table7,
    ),
    "table8": ExperimentSpec(
        lambda scale, system=None: experiments.table8_rows(
            scale, system_overrides=system
        ),
        render.render_table8,
    ),
    "relay-ablation": ExperimentSpec(
        lambda scale, system=None: experiments.relay_ablation_rows(
            scale, system_overrides=system
        ),
        lambda rows: render.render_table8(
            rows, title="Pipelined vs atomic relay ablation (line interconnect)"
        ),
    ),
    "fault-sweep": ExperimentSpec(
        lambda scale, system=None: experiments.fault_sweep_rows(
            scale, system_overrides=system
        ),
        render.render_fault_sweep,
    ),
    "figure1": ExperimentSpec(
        lambda scale, system=None: experiments.figure1_series(),
        lambda rows: render.render_series(rows, "Figure 1 — photon loss"),
    ),
    "figure7": ExperimentSpec(
        lambda scale, system=None: experiments.figure7_series(
            system_overrides=system
        ),
        lambda rows: render.render_series(rows, "Figure 7 — resource states"),
    ),
    "figure8": ExperimentSpec(
        lambda scale, system=None: experiments.figure8_series(
            system_overrides=system
        ),
        lambda rows: render.render_series(rows, "Figure 8 — K_max sensitivity"),
    ),
    "figure9": ExperimentSpec(
        lambda scale, system=None: experiments.figure9_series(
            system_overrides=system
        ),
        lambda rows: render.render_series(rows, "Figure 9 — alpha_max robustness"),
    ),
    "figure10": ExperimentSpec(
        lambda scale, system=None: experiments.figure10_series(
            system_overrides=system
        ),
        lambda rows: render.render_series(rows, "Figure 10 — compile-time scaling"),
    ),
}

#: Experiments that can also run as parallel sweeps (grid factory exists).
SWEEPABLE_GRIDS: List[str] = [
    name for name in EXPERIMENT_REGISTRY if name in GRID_REGISTRY
]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="dc-mbqc",
        description="DC-MBQC: distributed compilation for measurement-based quantum computing",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_program_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--program",
            default="QFT",
            help="benchmark family: " + ", ".join(benchmark_names()),
        )
        sub.add_argument(
            "--benchmark",
            dest="program",
            default=argparse.SUPPRESS,
            help="alias for --program",
        )
        sub.add_argument("--qubits", type=int, default=16)
        sub.add_argument("--qpus", type=int, default=4)
        sub.add_argument("--grid-size", type=int, default=None)
        sub.add_argument("--rsg", default="5-star", help="4-ring, 5-star, 6-ring or 7-star")
        sub.add_argument("--kmax", type=int, default=4)
        sub.add_argument("--no-bdir", action="store_true", help="disable BDIR refinement")
        sub.add_argument("--seed", type=int, default=0)
        add_system_arguments(sub)

    def add_system_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--topology",
            default=None,
            choices=[t.value for t in InterconnectTopology if t is not InterconnectTopology.CUSTOM],
            help="interconnect topology between QPUs (default: fully-connected)",
        )
        sub.add_argument(
            "--system-spec",
            default=None,
            metavar="PATH.json",
            help="custom system description (per-QPU specs + explicit links); "
            "overrides --qpus/--grid-size/--rsg/--topology",
        )

    def add_cache_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            default=None,
            help=f"artifact-cache directory (overrides ${CACHE_DIR_ENV})",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the content-addressed artifact cache",
        )
        sub.add_argument(
            "--json",
            action="store_true",
            help="print a machine-readable JSON summary instead of text",
        )

    def add_trace_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            nargs="?",
            const="trace.json",
            default=None,
            metavar="PATH.json",
            help="record a span trace and export it as Chrome trace-event "
            "JSON (load in Perfetto); ${DCMBQC_TRACE_DETERMINISTIC}=1 "
            "timestamps spans by op-counter ticks for byte-stable output",
        )
        sub.add_argument(
            "--metrics",
            nargs="?",
            const="metrics.json",
            default=None,
            metavar="PATH.json",
            help="dump the metrics registry (histogram buckets included) as "
            "JSON after the run; render it with `obs report --metrics`",
        )
        sub.add_argument(
            "--trace-resources",
            action="store_true",
            help="annotate spans with RSS and CPU-time deltas "
            "(forced off under ${DCMBQC_TRACE_DETERMINISTIC}=1)",
        )
        sub.add_argument(
            "--trace-malloc",
            action="store_true",
            help="additionally track tracemalloc allocation peaks per span "
            "(slower; implies --trace-resources)",
        )

    compile_parser = subparsers.add_parser("compile", help="run the distributed compiler")
    add_program_arguments(compile_parser)
    add_cache_arguments(compile_parser)
    add_trace_argument(compile_parser)
    compile_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a stage-by-stage timing table from the provenance manifest",
    )
    compile_parser.add_argument(
        "--inject-fault",
        action="append",
        metavar="SPEC",
        help="inject a seeded fault into the replay (repeatable), e.g. "
        "qpu:2@100, link:0-1@25%%, qpu:0@50%%+8:cap=1, loss:100ns",
    )
    compile_parser.add_argument(
        "--recovery",
        default="fail-fast",
        choices=["fail-fast", "reroute", "reschedule-frontier", "abort-recompile"],
        help="recovery policy applied to injected faults",
    )
    compile_parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for stochastic faults"
    )
    compile_parser.add_argument(
        "--fault-shots", type=int, default=1, help="seeded shots per fault spec"
    )

    compare_parser = subparsers.add_parser("compare", help="compare against a monolithic baseline")
    add_program_arguments(compare_parser)
    compare_parser.add_argument("--baseline", default="oneq", choices=["oneq", "oneadapt"])

    experiment_parser = subparsers.add_parser("experiment", help="regenerate a paper table/figure")
    experiment_parser.add_argument(
        "--name", required=True, choices=list(EXPERIMENT_REGISTRY)
    )
    experiment_parser.add_argument(
        "--scale",
        default="reduced",
        choices=[scale.value for scale in experiments.BenchmarkScale],
    )
    add_system_arguments(experiment_parser)

    def positive_int(value: str) -> int:
        count = int(value)
        if count < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return count

    def non_negative_int(value: str) -> int:
        count = int(value)
        if count < 0:
            raise argparse.ArgumentTypeError("must be non-negative")
        return count

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a parameter grid through the parallel sweep engine"
    )
    # --grid/--out are required for running a sweep but validated in the
    # handler (exit 2), so the `sweep status` subcommand can omit them.
    sweep_parser.add_argument("--grid", default=None, choices=SWEEPABLE_GRIDS)
    sweep_parser.add_argument("--workers", type=positive_int, default=1)
    sweep_parser.add_argument(
        "--out", default=None, help="result-store directory (or .jsonl path)"
    )
    sweep_parser.add_argument(
        "--scale",
        default="reduced",
        choices=[scale.value for scale in experiments.BenchmarkScale],
    )
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--retries", type=non_negative_int, default=1, help="retries per failed point"
    )
    sweep_parser.add_argument(
        "--csv", default=None, help="export the run table to this CSV after the sweep"
    )
    add_system_arguments(sweep_parser)
    add_cache_arguments(sweep_parser)
    add_trace_argument(sweep_parser)
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command")
    sweep_status_parser = sweep_sub.add_parser(
        "status",
        help="run-health digest of a result store: failure rate, duration "
        "quantiles, stragglers, failed points with tracebacks",
    )
    sweep_status_parser.add_argument(
        "store", help="result-store directory or .jsonl path"
    )
    sweep_status_parser.add_argument(
        "--json",
        dest="status_json",
        action="store_true",
        help="emit the health digest as JSON",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect exported Chrome trace files"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize", help="print the span tree and a top-N self-time table"
    )
    summarize_parser.add_argument("path", help="Chrome trace file (from --trace)")
    summarize_parser.add_argument(
        "--top", type=positive_int, default=10, help="rows in the self-time table"
    )
    summarize_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the span tree and self-time table as JSON "
        "(bench diff --json convention)",
    )
    flamegraph_parser = trace_sub.add_parser(
        "flamegraph",
        help="export collapsed stacks (flamegraph.pl / speedscope format)",
    )
    flamegraph_parser.add_argument("path", help="Chrome trace file (from --trace)")
    flamegraph_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write collapsed stacks here (default: stdout)",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="run-health reports over obs artifacts"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report_parser = obs_sub.add_parser(
        "report",
        help="merge a trace and a metrics dump into a markdown run report",
    )
    report_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH.json",
        help="Chrome trace file (from --trace)",
    )
    report_parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH.json",
        help="metrics dump (from --metrics)",
    )
    report_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH.md",
        help="write the report here (default: stdout)",
    )
    report_parser.add_argument(
        "--top", type=positive_int, default=10, help="rows in the tables"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark trajectory tools"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    diff_parser = bench_sub.add_parser(
        "diff",
        help="compare two BENCH_*.json trajectories; exit 1 on counter regressions",
    )
    diff_parser.add_argument("baseline", help="baseline BENCH_*.json")
    diff_parser.add_argument("candidate", help="candidate BENCH_*.json")
    diff_parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative counter growth (default %(default)s)",
    )
    diff_parser.add_argument(
        "--slack",
        type=non_negative_int,
        default=DEFAULT_SLACK,
        help="absolute slack for tiny counters (default %(default)s)",
    )
    diff_parser.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    return parser


def _system_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """System-model config overrides from ``--topology``/``--system-spec``.

    A ``--system-spec`` JSON document wins over the flag-based description:
    its per-QPU specs set the fleet (heterogeneous grids, RSG shapes and
    ``K_max`` values) and its explicit links, when present, define a custom
    interconnect.
    """
    overrides: Dict[str, object] = {}
    if getattr(args, "topology", None):
        overrides["topology"] = InterconnectTopology(args.topology)
    spec_path = getattr(args, "system_spec", None)
    if spec_path:
        from repro.hardware.system import system_from_json

        try:
            system = system_from_json(spec_path)
        except (OSError, json.JSONDecodeError, ValidationError) as exc:
            print(f"error: cannot load system spec {spec_path}: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        first = system.qpus[0]
        overrides.update(
            num_qpus=system.num_qpus,
            grid_size=first.grid_size,
            rsg_type=first.rsg_type,
            connection_capacity=first.connection_capacity,
            topology=system.topology,
            qpu_grid_sizes=tuple(qpu.grid_size for qpu in system.qpus),
            qpu_rsg_types=tuple(qpu.rsg_type for qpu in system.qpus),
            qpu_connection_capacities=tuple(
                qpu.connection_capacity for qpu in system.qpus
            ),
        )
        if system.topology is InterconnectTopology.CUSTOM:
            overrides["custom_links"] = tuple(
                (link.qpu_a, link.qpu_b, link.capacity) for link in system.links
            )
    return overrides


def _serialise_system_overrides(overrides: Dict[str, object]) -> Dict[str, object]:
    """Reduce config-typed system overrides to sweep-point extras.

    Enum values collapse to their names and the per-point scalar channels
    (grid size, ``K_max``, shared RSG type) are dropped — the per-QPU
    tuples carry them — so the result can ride any sweep point's
    ``extra`` channel.  Shared by ``experiment`` and ``sweep``.
    """
    serialisable = {
        name: value.value if hasattr(value, "value") else value
        for name, value in overrides.items()
        if name not in ("grid_size", "connection_capacity", "rsg_type")
    }
    if "qpu_rsg_types" in serialisable:
        serialisable["qpu_rsg_types"] = tuple(
            ResourceStateType.from_name(rsg).value
            for rsg in serialisable["qpu_rsg_types"]
        )
    return serialisable


def _config_from_args(args: argparse.Namespace) -> DCMBQCConfig:
    grid_size = args.grid_size or paper_grid_size(args.qubits)
    base = dict(
        num_qpus=args.qpus,
        grid_size=grid_size,
        rsg_type=ResourceStateType.from_name(args.rsg),
        connection_capacity=args.kmax,
        use_bdir=not args.no_bdir,
        seed=args.seed,
    )
    base.update(_system_overrides(args))
    return DCMBQCConfig(**base)


def _apply_cache_arguments(args: argparse.Namespace) -> None:
    """Propagate the cache flags to the environment (reaches sweep workers)."""
    if args.no_cache:
        # Disable every cache layer, the in-process stage memo and the
        # per-process computation graphs included — not just the disk store.
        os.environ[CACHE_DIR_ENV] = ""
        os.environ[CACHE_DISABLE_ENV] = "1"
    elif args.cache_dir:
        os.environ[CACHE_DIR_ENV] = args.cache_dir


def _apply_trace_arguments(args: argparse.Namespace) -> bool:
    """Enable span tracing when ``--trace`` was given; returns the decision.

    Sets ``DCMBQC_TRACE`` so sweep worker processes inherit the setting
    through the environment (same channel as the cache flags).
    """
    if not getattr(args, "trace", None):
        return False
    os.environ[TRACE_ENV] = "1"
    TRACER.reset()
    TRACER.enable()
    return True


def _export_trace(args: argparse.Namespace) -> Dict[str, object]:
    """Write the buffered spans to ``args.trace``; returns a summary dict."""
    spans = TRACER.spans()
    path = write_chrome_trace(args.trace, spans, deterministic=TRACER.deterministic)
    return {"path": str(path), "spans": len(spans), "run_id": TRACER.run_id}


def _apply_obs_arguments(args: argparse.Namespace) -> None:
    """Enable resource sampling per ``--trace-resources``/``--trace-malloc``.

    Sampling exports through the environment so sweep workers inherit it
    (same channel as ``DCMBQC_TRACE``).
    """
    if getattr(args, "trace_resources", False) or getattr(args, "trace_malloc", False):
        os.environ[RESOURCES_ENV] = "1"
        if getattr(args, "trace_malloc", False):
            os.environ[TRACEMALLOC_ENV] = "1"
        RESOURCES.enable(tracemalloc_peaks=getattr(args, "trace_malloc", False))


def _export_obs(args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Dump the metrics registry per ``--metrics``.

    Returns a ``{"metrics": {...}}`` entry when a dump was written, for the
    text/JSON run summaries.
    """
    info: Dict[str, Dict[str, object]] = {}
    if getattr(args, "metrics", None):
        deterministic = (
            TRACER.deterministic or os.environ.get(DETERMINISTIC_ENV) == "1"
        )
        document = METRICS.dump(deterministic=deterministic)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        info["metrics"] = {
            "path": args.metrics,
            "series": sum(
                len(document[kind])  # type: ignore[arg-type]
                for kind in ("counters", "gauges", "histograms")
            ),
        }
    return info


def _bad_fault_spec(spec: str, exc: Exception) -> NoReturn:
    print(f"error: bad --inject-fault spec {spec!r}: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _parse_fault_specs(specs: Sequence[str]) -> List[Tuple[str, object]]:
    """``(spec, FaultSpec)`` pairs, parsed before any compile work starts."""
    if not specs:
        return []
    from repro.runtime.faults import FaultInjectionError, parse_fault

    parsed = []
    for spec in specs:
        try:
            parsed.append((spec, parse_fault(spec)))
        except FaultInjectionError as exc:
            _bad_fault_spec(spec, exc)
    return parsed


def _run_compile(args: argparse.Namespace) -> int:
    _apply_cache_arguments(args)
    tracing = _apply_trace_arguments(args)
    _apply_obs_arguments(args)
    faults = _parse_fault_specs(args.inject_fault or ())
    circuit = build_benchmark(args.program, args.qubits, seed=args.seed)
    config = _config_from_args(args)
    store = resolve_store(args.cache_dir, enabled=not args.no_cache)
    with TRACER.span(
        "cli.compile", program=args.program, qubits=args.qubits, qpus=config.num_qpus
    ):
        result, run = DCMBQCCompiler(config).compile_run(
            circuit, store=store, use_cache=not args.no_cache
        )
        if tracing:
            # Replay the schedule under the trace as well, so the exported
            # timeline covers the full compile → runtime story.
            from repro.runtime.executor import DistributedRuntime

            DistributedRuntime(result).run()
    summary = result.summary()
    manifest = run.manifest()
    fault_rows = None
    if faults:
        from repro.runtime.faults import FaultInjectionError, run_fault_scenario

        fault_rows = []
        for spec, fault in faults:
            try:
                fault_rows.append(
                    run_fault_scenario(
                        result,
                        fault,
                        args.recovery,
                        seed=args.fault_seed,
                        shots=args.fault_shots,
                    )
                )
            except FaultInjectionError as exc:
                _bad_fault_spec(spec, exc)
    trace_info = _export_trace(args) if tracing else None
    obs_info = _export_obs(args)
    if args.json:
        document = {"summary": summary, "pipeline": manifest}
        if fault_rows is not None:
            document["faults"] = fault_rows
        if trace_info is not None:
            document["trace"] = trace_info
        document.update(obs_info)
        print(json.dumps(document, default=str))
        return 0
    print(f"Distributed compilation of {args.program}-{args.qubits} on {args.qpus} QPUs")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    stages = ", ".join(
        f"{record['stage']}={record['status']}" for record in manifest["stages"]
    )
    print(
        f"cache: {manifest['cache_hits']} hits, {manifest['executions']} misses"
        f" ({stages})"
    )
    if fault_rows is not None:
        for row in fault_rows:
            print(
                f"fault {row['fault']} policy={row['policy']}: "
                f"failure_rate={row['failure_rate']} "
                f"recovered_rate={row['recovered_rate']} "
                f"overhead={row['recovery_overhead_cycles']} "
                f"(affected {row['affected_mains']} mains, "
                f"{row['affected_syncs']} syncs, cycle {row['fault_cycle']})"
            )
    if trace_info is not None:
        print(f"trace: {trace_info['spans']} spans -> {trace_info['path']}")
    if "metrics" in obs_info:
        print(
            f"metrics: {obs_info['metrics']['series']} series -> "
            f"{obs_info['metrics']['path']}"
        )
    if args.profile:
        print()
        print(render_profile_table(manifest))
    return 0


def render_profile_table(manifest: Dict[str, object]) -> str:
    """Stage-by-stage timing table from a pipeline provenance manifest.

    The per-stage wall times are the pipeline's existing telemetry (recorded
    on every run); this renders them as the ``compile --profile`` report.
    """
    records = list(manifest["stages"])
    total = sum(float(record["seconds"]) for record in records) or 1.0
    width = max([len("stage")] + [len(str(record["stage"])) for record in records])
    lines = [
        f"{'stage'.ljust(width)} | status     | seconds  | share",
        f"{'-' * width}-+------------+----------+------",
    ]
    for record in records:
        seconds = float(record["seconds"])
        share = f"{100.0 * seconds / total:5.1f}%"
        lines.append(
            f"{str(record['stage']).ljust(width)} | {str(record['status']).ljust(10)} "
            f"| {seconds:8.4f} | {share}"
        )
    lines.append(
        f"{'total'.ljust(width)} | {''.ljust(10)} | {float(manifest['seconds']):8.4f} |"
    )
    return "\n".join(lines)


def _run_compare(args: argparse.Namespace) -> int:
    circuit = build_benchmark(args.program, args.qubits, seed=args.seed)
    config = _config_from_args(args)
    comparison = compare_with_baseline(circuit, config, baseline=args.baseline)
    row = comparison.as_row()
    print(f"{args.program}-{args.qubits} vs {args.baseline} ({args.qpus} QPUs, {args.rsg})")
    for key, value in row.items():
        print(f"  {key}: {value}")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    scale = experiments.BenchmarkScale(args.scale)
    spec = EXPERIMENT_REGISTRY[args.name]
    system = _serialise_system_overrides(_system_overrides(args)) or None
    print(spec.renderer(spec.driver(scale, system)))
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if getattr(args, "sweep_command", None) == "status":
        return _run_sweep_status(args)
    if not args.grid or not args.out:
        print(
            "error: sweep requires --grid and --out (or the `status` "
            "subcommand)",
            file=sys.stderr,
        )
        return 2
    _apply_cache_arguments(args)
    tracing = _apply_trace_arguments(args)
    _apply_obs_arguments(args)
    scale = experiments.BenchmarkScale(args.scale)
    grid = GRID_REGISTRY[args.grid](scale, seed=args.seed)
    system_overrides = _serialise_system_overrides(_system_overrides(args))
    if system_overrides:
        from repro.sweep.grids import pin_system_overrides

        grid = pin_system_overrides(grid, system_overrides)
    try:
        store = ResultStore(args.out)
        # Create the store's directory now: a bad --out fails before any point runs.
        store.path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot open result store at {args.out}: {exc}", file=sys.stderr)
        return 2

    def progress(point, record, finished, total) -> None:
        status = record.get("status", "?")
        duration = record.get("duration_s")
        timing = f" ({duration:.2f}s)" if isinstance(duration, float) else ""
        flag = ""
        if record.get("straggler"):
            flag = f" STRAGGLER x{record.get('straggler_ratio')}"
        print(f"[{finished}/{total}] {status} {point.task} {point.label}{timing}{flag}")

    runner = SweepRunner(
        workers=args.workers,
        retries=args.retries,
        progress=None if args.json else progress,
    )
    with TRACER.span(
        "cli.sweep", grid=args.grid, scale=scale.value, workers=args.workers
    ):
        outcome = runner.run(grid, store)
    summary = outcome.summary()
    cache = outcome.cache_summary()
    trace_info = _export_trace(args) if tracing else None
    obs_info = _export_obs(args)
    exported = None
    if args.csv:
        exported = store.export_csv(args.csv)
    if args.json:
        document = {
            "grid": args.grid,
            "scale": scale.value,
            "workers": args.workers,
            "summary": summary,
            "stragglers": len(outcome.stragglers),
            "cache": cache,
            "store": str(store.path),
            "csv_rows": exported,
        }
        if trace_info is not None:
            document["trace"] = trace_info
        document.update(obs_info)
        print(json.dumps(document, default=str))
        return 1 if outcome.failed else 0
    print(
        f"Sweep {args.grid} (scale={scale.value}, workers={args.workers}): "
        f"{summary['total']} points, {summary['completed']} completed, "
        f"{summary['skipped']} skipped, {summary['failed']} failed"
    )
    print(f"cache: {cache['hits']} hits, {cache['misses']} misses")
    print(f"store: {store.path}")
    if outcome.stragglers:
        print(f"stragglers: {len(outcome.stragglers)}")
    if trace_info is not None:
        print(f"trace: {trace_info['spans']} spans -> {trace_info['path']}")
    if "metrics" in obs_info:
        print(
            f"metrics: {obs_info['metrics']['series']} series -> "
            f"{obs_info['metrics']['path']}"
        )
    if exported is not None:
        print(f"exported {exported} rows to {args.csv}")
    return 1 if outcome.failed else 0


def _run_sweep_status(args: argparse.Namespace) -> int:
    try:
        store = ResultStore(args.store)
    except OSError as exc:
        print(f"error: cannot open result store at {args.store}: {exc}", file=sys.stderr)
        return 2
    if len(store) == 0:
        print(f"no records in {args.store}", file=sys.stderr)
        return 1
    health = store.summarize_health()
    if getattr(args, "status_json", False):
        print(json.dumps(health, default=str))
        return 1 if health["failed"] else 0
    durations = health["duration_s"]
    print(
        f"Sweep store {store.path}: {health['total']} points, "
        f"{health['completed']} completed, {health['failed']} failed "
        f"({100.0 * float(health['failure_rate']):.1f}% failure rate)"
    )
    print(
        f"duration_s: p50={durations['p50']} p95={durations['p95']} "
        f"p99={durations['p99']} max={durations['max']}"
    )
    for straggler in health["stragglers"]:
        print(
            f"straggler: {straggler['key']} ({straggler['task']}) "
            f"{straggler['duration_s']:.3f}s = x{straggler['ratio']} median"
        )
    for failure in health["failures"]:
        print(
            f"failed: {failure['key']} ({failure['task']}, "
            f"{failure['attempts']} attempts) "
            f"{failure['error_type'] or '?'}: {failure['error']}"
        )
        if failure.get("traceback"):
            print("  " + str(failure["traceback"]).rstrip().replace("\n", "\n  "))
    return 1 if health["failed"] else 0


def _run_trace(args: argparse.Namespace) -> int:
    try:
        spans = load_chrome_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    if args.trace_command == "flamegraph":
        if args.out:
            path = write_collapsed_stacks(args.out, spans)
            print(f"collapsed stacks: {len(collapsed_stacks(spans))} -> {path}")
        else:
            print("\n".join(collapsed_stacks(spans)))
        return 0
    if getattr(args, "json", False):
        print(json.dumps(summarize_trace(spans, top=args.top)))
        return 0
    print(render_span_tree(spans))
    print()
    print(render_top_spans(spans, top=args.top))
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    spans = []
    metrics_doc = None
    if not (args.trace or args.metrics):
        print(
            "error: obs report needs at least one of --trace/--metrics",
            file=sys.stderr,
        )
        return 2
    try:
        if args.trace:
            spans = load_chrome_trace(args.trace)
        if args.metrics:
            with open(args.metrics, encoding="utf-8") as handle:
                metrics_doc = check_dump(json.load(handle))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read obs artifact: {exc}", file=sys.stderr)
        return 2
    report = build_report(spans, metrics_doc=metrics_doc, top=args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report -> {args.out}")
    else:
        print(report, end="")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    try:
        diff = diff_bench_files(
            args.baseline, args.candidate, tolerance=args.tolerance, slack=args.slack
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.as_dict()))
    else:
        print(diff.report())
    return 0 if diff.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "compile": _run_compile,
        "compare": _run_compare,
        "experiment": _run_experiment,
        "sweep": _run_sweep,
        "trace": _run_trace,
        "obs": _run_obs,
        "bench": _run_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
