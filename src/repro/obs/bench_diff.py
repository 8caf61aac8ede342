"""Compare two ``BENCH_*.json`` perf trajectories for counter regressions.

The benchmark harness records machine-readable trajectories
(``benchmarks/results/BENCH_figure10.json``, ``BENCH_optimize.json``): a
``rows`` list where each row mixes deterministic counters (``ops_*`` op
counts, gate/edge/width totals) with volatile wall-clock seconds.  This
module diffs two such files **on the deterministic fields only** — wall
times are reported informationally but can never fail the check, which is
what keeps the CI gate green on noisy runners while still failing a change
that reintroduces a quadratic loop.

A counter regresses when the new value exceeds
``max(old * (1 + tolerance), old + slack)`` — the same two-sided limit the
perf-smoke harness uses, so one extra call on a tiny counter is not a
regression but a 10 % jump on a million-op counter is.

Used by ``repro bench diff A.json B.json`` (exit code 1 on regression).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

__all__ = ["BenchDiff", "CounterChange", "diff_bench_files", "load_bench_rows"]

#: Default allowed relative growth per counter (mirrors perf_smoke.py).
DEFAULT_TOLERANCE = 0.10
#: Default absolute slack for tiny counters.
DEFAULT_SLACK = 8

#: Row-key candidates, in preference order: a figure-10 row is keyed by its
#: qubit count, an optimize row by its circuit width.
_KEY_FIELDS = ("qubits", "width", "instance", "label", "name")


def _is_counter_field(name: str, value: object) -> bool:
    """Deterministic-counter heuristic: integer fields that aren't timings."""
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    lowered = name.lower()
    return not (lowered.endswith("_seconds") or lowered.endswith("_s")
                or "duration" in lowered or "time_s" in lowered)


def load_bench_rows(
    path: Union[str, pathlib.Path],
) -> Tuple[str, Dict[str, Dict[str, object]]]:
    """Load a BENCH json; returns (bench name, row-label → row dict)."""
    document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a BENCH trajectory (not a JSON object)")
    rows = document.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: not a BENCH trajectory (no 'rows' list)")
    table: Dict[str, Dict[str, object]] = {}
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {index} is not an object")
        label = f"row{index}"
        for candidate in _KEY_FIELDS:
            if candidate in row:
                label = f"{candidate}={row[candidate]}"
                break
        table[label] = row
    return str(document.get("name", pathlib.Path(path).stem)), table


@dataclass(frozen=True)
class CounterChange:
    """One counter's old → new movement in one row."""

    row: str
    counter: str
    old: int
    new: int
    limit: float

    @property
    def regressed(self) -> bool:
        return self.new > self.limit

    @property
    def ratio(self) -> float:
        return self.new / self.old if self.old else float("inf" if self.new else 1)

    def describe(self) -> str:
        arrow = f"{self.old} -> {self.new}"
        if self.old:
            arrow += f" ({100.0 * (self.new - self.old) / self.old:+.1f}%)"
        return f"{self.row}: {self.counter} {arrow} (limit {self.limit:.0f})"


@dataclass
class BenchDiff:
    """Full comparison of two trajectories."""

    name_a: str
    name_b: str
    regressions: List[CounterChange] = field(default_factory=list)
    improvements: List[CounterChange] = field(default_factory=list)
    unchanged: int = 0
    missing_rows: List[str] = field(default_factory=list)
    new_rows: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_rows

    def report(self) -> str:
        """Readable per-counter report (the CI failure message)."""
        lines = [f"bench diff: {self.name_a} -> {self.name_b}"]
        for row in self.missing_rows:
            lines.append(f"  MISSING  {row}: row absent from the new trajectory")
        for change in self.regressions:
            lines.append(f"  REGRESS  {change.describe()}")
        for change in self.improvements:
            lines.append(f"  improve  {change.describe()}")
        for row in self.new_rows:
            lines.append(f"  new row  {row}")
        lines.append(
            f"  {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{self.unchanged} counter(s) unchanged"
        )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "baseline": self.name_a,
            "candidate": self.name_b,
            "regressions": [change.describe() for change in self.regressions],
            "improvements": [change.describe() for change in self.improvements],
            "unchanged": self.unchanged,
            "missing_rows": self.missing_rows,
            "new_rows": self.new_rows,
        }


def diff_bench_files(
    baseline_path: Union[str, pathlib.Path],
    candidate_path: Union[str, pathlib.Path],
    tolerance: float = DEFAULT_TOLERANCE,
    slack: int = DEFAULT_SLACK,
) -> BenchDiff:
    """Diff two BENCH files; see the module docstring for the semantics."""
    name_a, rows_a = load_bench_rows(baseline_path)
    name_b, rows_b = load_bench_rows(candidate_path)
    diff = BenchDiff(name_a=name_a, name_b=name_b)

    for label, row_a in rows_a.items():
        row_b = rows_b.get(label)
        if row_b is None:
            diff.missing_rows.append(label)
            continue
        for counter in sorted(row_a):
            old = row_a[counter]
            if not _is_counter_field(counter, old):
                continue
            new = row_b.get(counter)
            if not isinstance(new, int) or isinstance(new, bool):
                # A counter dropped from the trajectory counts as missing
                # data, which is a regression of the record itself.
                diff.regressions.append(
                    CounterChange(label, counter, int(old), -1, limit=-1.0)
                )
                continue
            limit = max(old * (1.0 + tolerance), old + slack)
            change = CounterChange(label, counter, int(old), int(new), limit)
            if change.regressed:
                diff.regressions.append(change)
            elif new < old:
                diff.improvements.append(change)
            else:
                diff.unchanged += 1
    diff.new_rows = [label for label in rows_b if label not in rows_a]
    return diff
