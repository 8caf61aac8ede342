"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.program == "QFT"
        assert args.qpus == 4
        assert args.rsg == "5-star"

    def test_compare_baseline_choices(self):
        args = build_parser().parse_args(["compare", "--baseline", "oneadapt"])
        assert args.baseline == "oneadapt"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--baseline", "bogus"])

    def test_experiment_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_topology_choices(self):
        args = build_parser().parse_args(["compile", "--topology", "ring"])
        assert args.topology == "ring"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--topology", "moebius"])

    def test_sweep_accepts_topology(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "table3", "--out", "x", "--topology", "line"]
        )
        assert args.topology == "line"


class TestCommands:
    def test_compile_command(self, capsys):
        exit_code = main(
            ["compile", "--program", "QFT", "--qubits", "8", "--qpus", "2", "--grid-size", "5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "execution_time" in output
        assert "required_photon_lifetime" in output

    def test_compare_command(self, capsys):
        exit_code = main(
            [
                "compare",
                "--program",
                "RCA",
                "--qubits",
                "8",
                "--qpus",
                "2",
                "--grid-size",
                "5",
                "--no-bdir",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "exec_improvement" in output

    def test_experiment_table1(self, capsys):
        exit_code = main(["experiment", "--name", "table1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Photonic" in output

    def test_experiment_figure1(self, capsys):
        exit_code = main(["experiment", "--name", "figure1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "loss_probability" in output

    def test_experiment_table2_smoke(self, capsys):
        exit_code = main(["experiment", "--name", "table2", "--scale", "smoke"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Benchmark programs" in output


class TestSystemModelFlags:
    BASE = ["--program", "QFT", "--qubits", "8", "--qpus", "4", "--grid-size", "5", "--no-cache"]

    @pytest.fixture(autouse=True)
    def isolated_caches(self, monkeypatch):
        """``--no-cache`` mutates ``os.environ``; undo it after each test."""
        import os

        from repro.pipeline import CACHE_DIR_ENV, CACHE_DISABLE_ENV

        yield
        os.environ.pop(CACHE_DIR_ENV, None)
        os.environ.pop(CACHE_DISABLE_ENV, None)

    def test_compile_with_line_topology(self, capsys):
        exit_code = main(["compile", *self.BASE, "--topology", "line"])
        assert exit_code == 0
        assert "execution_time" in capsys.readouterr().out

    def test_line_topology_changes_the_schedule(self, capsys):
        import json

        main(["compile", *self.BASE, "--json"])
        fully_connected = json.loads(capsys.readouterr().out)["summary"]
        main(["compile", *self.BASE, "--json", "--topology", "line"])
        line = json.loads(capsys.readouterr().out)["summary"]
        assert (
            line["execution_time"],
            line["part_sizes"],
        ) != (
            fully_connected["execution_time"],
            fully_connected["part_sizes"],
        )

    def test_compare_with_ring_topology(self, capsys):
        exit_code = main(
            ["compare", "--program", "RCA", "--qubits", "8", "--qpus", "4",
             "--grid-size", "5", "--no-bdir", "--topology", "ring"]
        )
        assert exit_code == 0
        assert "exec_improvement" in capsys.readouterr().out

    def test_compile_with_system_spec(self, tmp_path, capsys):
        import json

        spec = {
            "topology": "custom",
            "qpus": [
                {"grid_size": 5},
                {"grid_size": 7, "rsg_type": "4-ring"},
                {"grid_size": 5},
            ],
            "links": [[0, 1], [1, 2, 2]],
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(spec))
        exit_code = main(
            ["compile", "--program", "QFT", "--qubits", "8", "--no-cache",
             "--system-spec", str(path), "--json"]
        )
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["num_qpus"] == 3

    def test_malformed_system_spec_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text('{"qpus": [{}, {}]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--program", "QFT", "--qubits", "8", "--no-cache",
                  "--system-spec", str(path)])
        assert excinfo.value.code == 2
        assert "system spec field 'qpus' is invalid" in capsys.readouterr().err

    def test_sweep_with_topology_override(self, tmp_path, capsys):
        exit_code = main(
            ["sweep", "--grid", "table6", "--scale", "smoke", "--out",
             str(tmp_path / "store"), "--topology", "line", "--no-cache", "--json"]
        )
        assert exit_code == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["summary"]["failed"] == 0

    def test_sweep_system_spec_drops_conflicting_axes(self, tmp_path, capsys):
        """A pinned fleet must win over a grid's num_qpus/topology axes."""
        import json

        path = tmp_path / "system.json"
        path.write_text(
            json.dumps(
                {
                    "topology": "custom",
                    "qpus": [{"grid_size": 5}, {"grid_size": 7}, {"grid_size": 5}],
                    "links": [[0, 1], [1, 2]],
                }
            )
        )
        # table8 sweeps both num_qpus and topology; with a 3-QPU custom spec
        # every point must still compile (axes dropped, not clashing).
        exit_code = main(
            ["sweep", "--grid", "table8", "--scale", "smoke", "--out",
             str(tmp_path / "store"), "--system-spec", str(path),
             "--no-cache", "--json"]
        )
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["summary"]["failed"] == 0
        assert summary["summary"]["completed"] > 0


class TestFaultFlags:
    COMPILE = ["compile", "--program", "QFT", "--qubits", "8", "--qpus", "2", "--no-cache"]

    def test_unparsable_spec_fails_before_any_compile(self, capsys, monkeypatch):
        from repro.core.compiler import DCMBQCCompiler

        def refuse(*args, **kwargs):
            raise AssertionError("compile ran for an unparsable fault spec")

        monkeypatch.setattr(DCMBQCCompiler, "compile_run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            main([*self.COMPILE, "--inject-fault", "nonsense"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --inject-fault spec 'nonsense': ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_spec_naming_no_qpu_of_the_system_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.COMPILE, "--inject-fault", "qpu:7@3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: bad --inject-fault spec 'qpu:7@3': "
            "fault 'qpu:7@3' names no QPU of the system\n"
        )
