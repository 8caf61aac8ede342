"""Tests for the CLI sweep subcommand and the experiment registry."""

import pytest

from repro.cli import EXPERIMENT_REGISTRY, SWEEPABLE_GRIDS, build_parser, main
from repro.sweep.grids import GRID_REGISTRY
from repro.sweep.store import ResultStore


class TestExperimentRegistry:
    def test_covers_every_paper_artefact(self):
        assert set(EXPERIMENT_REGISTRY) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "relay-ablation",
            "fault-sweep",
            "figure1",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
        }

    def test_sweepable_grids_are_registered_experiments(self):
        assert SWEEPABLE_GRIDS
        for name in SWEEPABLE_GRIDS:
            assert name in EXPERIMENT_REGISTRY
            assert name in GRID_REGISTRY

    def test_experiment_dispatch_through_registry(self, capsys):
        exit_code = main(["experiment", "--name", "table1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert output.startswith("Table I")


class TestSweepParser:
    def test_requires_grid_and_out(self, capsys):
        # --grid/--out are parser-optional (so `sweep status` works) but the
        # run handler still demands both, exiting 2 with a usage message.
        assert main(["sweep", "--grid", "table3"]) == 2
        assert "requires --grid and --out" in capsys.readouterr().err
        assert main(["sweep", "--out", "x"]) == 2
        assert "requires --grid and --out" in capsys.readouterr().err

    def test_rejects_unsweepable_grid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--grid", "table1", "--out", "x"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["sweep", "--grid", "table3", "--out", "x"])
        assert args.workers == 1
        assert args.retries == 1
        assert args.scale == "reduced"
        assert args.csv is None


class TestSweepCommand:
    def test_sweep_writes_store_and_resumes(self, tmp_path, capsys):
        out = str(tmp_path / "table3")
        argv = [
            "sweep",
            "--grid",
            "table3",
            "--workers",
            "2",
            "--out",
            out,
            "--scale",
            "smoke",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 completed, 0 skipped, 0 failed" in first

        store = ResultStore(out)
        assert len(store.completed_keys()) == 4

        # Re-running the same command resumes: every point is skipped.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 completed, 4 skipped, 0 failed" in second

    def test_sweep_csv_export(self, tmp_path, capsys):
        out = str(tmp_path / "table6")
        csv_path = tmp_path / "table6.csv"
        exit_code = main(
            [
                "sweep",
                "--grid",
                "table6",
                "--out",
                out,
                "--scale",
                "smoke",
                "--csv",
                str(csv_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert csv_path.exists()
        assert "exported" in output
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert "bdir_lifetime" in header

class TestSweepStatus:
    @staticmethod
    def _seed_store(tmp_path, with_failure=True):
        """Build a store with six quick points and one injected failure."""
        from repro.sweep.grid import SweepPoint
        from repro.sweep.runner import run_grid

        points = [
            SweepPoint(task="_test_touch", extra=(("log", str(tmp_path / "log")), ("idx", str(i))))
            for i in range(6)
        ]
        if with_failure:
            points.append(SweepPoint(task="_test_boom"))
        store = ResultStore(tmp_path / "store")
        run_grid(points, store=store)
        return store

    def test_status_reports_failure_rate_and_traceback(self, tmp_path, capsys):
        import tests.test_sweep_runner  # noqa: F401  (registers _test_* tasks)

        store = self._seed_store(tmp_path)
        assert main(["sweep", "status", str(store.path)]) == 1
        output = capsys.readouterr().out
        assert "7 points, 6 completed, 1 failed" in output
        assert "14.3% failure rate" in output
        assert "ValueError: always fails" in output
        assert "Traceback (most recent call last)" in output

    def test_status_json(self, tmp_path, capsys):
        import json

        import tests.test_sweep_runner  # noqa: F401

        store = self._seed_store(tmp_path)
        assert main(["sweep", "status", str(store.path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 7
        assert doc["failed"] == 1
        assert doc["failure_rate"] > 0
        assert doc["failures"][0]["error_type"] == "ValueError"
        assert "always fails" in doc["failures"][0]["traceback"]

    def test_status_healthy_store_exits_zero(self, tmp_path, capsys):
        import tests.test_sweep_runner  # noqa: F401

        store = self._seed_store(tmp_path, with_failure=False)
        assert main(["sweep", "status", str(store.path)]) == 0
        output = capsys.readouterr().out
        assert "0.0% failure rate" in output

    def test_status_missing_store_errors(self, tmp_path, capsys):
        assert main(["sweep", "status", str(tmp_path / "absent.jsonl")]) == 1
        assert "no records" in capsys.readouterr().err

    def test_status_on_missing_store_creates_nothing(self, tmp_path, capsys):
        absent = tmp_path / "nothere" / "deeper"
        assert main(["sweep", "status", str(absent)]) != 0
        assert not (tmp_path / "nothere").exists()


class TestSweepSeed:
    def test_seed_flag_reaches_circuit_construction(self, capsys):
        """`--seed` must vary the built circuit, not only the compiler."""
        main(["compile", "--program", "QAOA", "--qubits", "8", "--grid-size", "5", "--seed", "1"])
        first = capsys.readouterr().out
        main(["compile", "--program", "QAOA", "--qubits", "8", "--grid-size", "5", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
