"""Tests for the ``cogra`` command line interface."""

import pytest

from repro.cli import build_parser, main

Q_TEXT = "RETURN company, COUNT(*) PATTERN Stock A+ SEMANTICS any GROUP-BY company"


class TestCli:
    def test_capabilities_prints_table_9(self, capsys):
        assert main(["capabilities"]) == 0
        output = capsys.readouterr().out
        assert "cogra" in output and "flink" in output
        assert "Kleene closure" in output

    def test_explain_prints_plan(self, capsys):
        assert main(["explain", Q_TEXT]) == 0
        output = capsys.readouterr().out
        assert "granularity : type" in output
        assert "PATTERN" in output

    def test_explain_prints_the_fold_step_table(self, capsys):
        text = "RETURN COUNT(*), SUM(A.v), COUNT(C) PATTERN SEQ(A, B, C+) SEMANTICS any"
        assert main(["explain", text]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("fold steps  : variable  predecessors  starts  own targets")
        assert lines[start + 1:start + 3] == [
            "              A         -             yes     A.v",
            "              B         A             no      -",
        ]
        # C's two predecessors, in the order its fold adds them up
        cells = lines[start + 3].split()
        assert cells[0] == "C" and cells[-2:] == ["no", "C"]
        assert sorted(cell.rstrip(",") for cell in cells[1:-2]) == ["B", "C"]

    def test_explain_prints_the_plan_the_engine_runs_for_a_negated_query(self, capsys):
        """A negated query's mixed plan is escalated to event granularity."""
        text = (
            "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS any "
            "WHERE [g] AND A.v < NEXT(A).v"
        )
        assert main(["explain", text]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "granularity : event (forced; selector would pick mixed)" in lines
        assert "Tt (type)   : []" in lines
        assert "Te (event)  : ['A', 'B']" in lines
        assert "negations   : NOT C between ['A'] and ['B']" in lines

    def test_explain_reads_query_from_file(self, tmp_path, capsys):
        path = tmp_path / "query.cep"
        path.write_text(Q_TEXT)
        assert main(["explain", str(path)]) == 0
        assert "granularity" in capsys.readouterr().out

    def test_run_on_synthetic_dataset(self, capsys):
        assert main(["run", Q_TEXT, "--dataset", "stock", "--events", "200", "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "result rows" in output
        assert "COUNT(*)" in output

    def test_figures_with_unknown_name_fails(self, capsys):
        assert main(["figures", "figure99"]) == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_figures_runs_a_small_sweep(self, capsys):
        # restrict to the online approaches so the smoke run stays fast
        assert main(["figures", "figure10", "--approaches", "cogra", "--budget", "1000"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output
        assert "latency" in output

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
