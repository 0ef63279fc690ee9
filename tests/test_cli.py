"""The repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_requires_valid_number(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "11"])

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table", "1", "--scale", "quick"])
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "1", "--scale", "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "1", "--store", "dict"],
            ["solve", "x.cnf", "--store", "dict"],
            ["soak", "--store", "dict"],
            ["bench", "--axis", "store"],
        ],
    )
    def test_no_store_backend_selection(self, argv):
        # NogoodStore is the only product store; there is nothing to pick.
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--axis", "workers"],
            ["bench", "--axis", "backend"],
            ["bench", "--axis", "lint"],
            ["bench", "--axis", "alloc"],
            ["bench", "--axis", "verify"],
            ["lint"],
            ["verify", "--axis", "lint"],
        ],
    )
    def test_one_engine_and_no_engine_bench_axes(self, argv):
        # The synchronous simulator is the only engine, and bench measures
        # only the verifier, so it takes no axis; the lint command is gone.
        # verify and bench reject unknown options through their own parsers.
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize(
        "argv", [["table", "1", "-j", "2"], ["report", "-j", "2"]]
    )
    def test_worker_count_is_an_environment_setting(self, argv):
        # REPRO_JOBS is the one worker setting; no subcommand takes a flag.
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "1", "--retention", "lru:64"],
            ["solve", "x.cnf", "--retention", "lru:16"],
            ["soak"],
            ["bench", "--axis", "retention"],
        ],
    )
    def test_no_retention_selection(self, argv):
        # Stores keep every nogood they record, as in the paper.
        with pytest.raises(SystemExit):
            main(argv)

    def test_bench_parses_without_an_axis(self):
        args, rest = build_parser().parse_known_args(["bench", "--gate"])
        assert args.func.__name__ == "_cmd_bench"
        assert rest == ["--gate"]
        assert not hasattr(args, "axis")

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_forwarded_commands_show_their_own_options(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command}")
        expected = "--naive-budget" if command == "verify" else "--gate"
        assert expected in out


class TestCommands:
    def test_table1_quick(self, capsys):
        assert main(["table", "1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "AWC+Rslv" in out
        assert "paper cycle" in out

    def test_table1_no_reference(self, capsys):
        main(["table", "1", "--scale", "quick", "--no-reference"])
        assert "paper cycle" not in capsys.readouterr().out

    def test_table4_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table", "4", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Rslv/norec" in out
        assert "redundant" in out

    def test_figure2_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figure2", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "delay" in out

    def test_generate_and_solve_cnf(self, capsys, tmp_path):
        out = str(tmp_path / "inst")
        assert main(["generate", "d3s", "12", "--count", "2", "-o", out]) == 0
        files = sorted((tmp_path / "inst").glob("*.cnf"))
        assert len(files) == 2
        capsys.readouterr()
        assert main(["solve", str(files[0])]) == 0
        output = capsys.readouterr().out
        assert "s SATISFIABLE" in output
        assert output.splitlines()[-1].startswith("v ")

    def test_solve_reports_unsatisfiable(self, capsys, tmp_path):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["solve", str(cnf)]) == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_solve_with_db_reports_unknown_on_unsat(self, capsys, tmp_path):
        # DB is incomplete: it cannot prove unsatisfiability.
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
        assert main(
            ["solve", str(cnf), "--algorithm", "DB", "--max-cycles", "50"]
        ) == 2
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_generate_coloring_writes_dimacs_graph(self, capsys, tmp_path):
        out = str(tmp_path / "col")
        assert main(["generate", "d3c", "15", "-o", out]) == 0
        files = list((tmp_path / "col").glob("*.col"))
        assert len(files) == 1
        from repro.problems.graphs import parse_dimacs_graph

        graph = parse_dimacs_graph(files[0].read_text())
        assert graph.num_nodes == 15

    def test_report_writes_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        target = tmp_path / "report.md"
        main(["report", "--scale", "quick", "-o", str(target)])
        text = target.read_text()
        assert "# EXPERIMENTS" in text
        assert "Table 10" in text
        assert "wrote" in capsys.readouterr().out

    def test_sweep_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "d3c", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Size-bound sweep" in out
        assert "empirical best bound: AWC+" in out

    def test_asynchrony_quick(self, capsys):
        assert main(["asynchrony", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "network models" in out
        assert "lossy(30%)" in out
        assert "fixed(4)" in out

    def test_validate_quick(self, capsys):
        assert main(
            ["validate", "--scale", "quick", "--algorithms", "AWC+Rslv",
             "--delays", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "linear-model validation" in out
        assert "worst deviation" in out

    def test_figure2_renders_plot(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figure2", "--scale", "quick", "--no-reference"]) == 0
        out = capsys.readouterr().out
        assert "total time-units vs communication delay" in out
        assert "* AWC+4thRslv" in out
        assert "+ DB" in out

    def test_seed_changes_results(self, capsys):
        main(["table", "1", "--scale", "quick", "--seed", "1",
              "--no-reference"])
        first = capsys.readouterr().out
        main(["table", "1", "--scale", "quick", "--seed", "2",
              "--no-reference"])
        second = capsys.readouterr().out
        assert first != second
