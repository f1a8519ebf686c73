"""Tests for the CLI sub-commands added on top of explain/run/figures."""


from repro.cli import main

COUNT_QUERY = """
RETURN company, COUNT(*)
PATTERN Stock A+
SEMANTICS skip-till-any-match
GROUP-BY company
"""


class TestCostCommand:
    def test_cost_report(self, capsys):
        assert main(["cost", COUNT_QUERY, "--events", "5000"]) == 0
        output = capsys.readouterr().out
        assert "granularity" in output
        assert "trend count growth" in output
        assert "exponential" in output

    def test_cost_compare_lists_every_granularity(self, capsys):
        assert main(["cost", COUNT_QUERY, "--compare"]) == 0
        output = capsys.readouterr().out
        assert "forced granularity: type" in output
        assert "forced granularity: event" in output

    def test_cost_estimates_the_plan_the_engine_runs_for_a_negated_query(self, capsys):
        """The engine runs a negated mixed-eligible query at event
        granularity and rejects a forced mixed one: neither is estimated."""
        text = (
            "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS any "
            "WHERE [g] AND A.v < NEXT(A).v"
        )
        assert main(["cost", text, "--compare"]) == 0
        output = capsys.readouterr().out
        assert output.splitlines()[0].split() == ["granularity", ":", "event"]
        assert "forced granularity: event" in output
        assert "mixed" not in output


class TestGenerateAndStats:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "stock.csv"
        assert main(["generate", "--dataset", "stock", "--events", "200", "--out", str(out)]) == 0
        assert out.exists()
        assert "200 events" in capsys.readouterr().out

    def test_generate_eoddata_format(self, tmp_path):
        out = tmp_path / "eod.csv"
        assert main(
            ["generate", "--dataset", "stock", "--events", "100", "--out", str(out), "--format", "eoddata"]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("Symbol,")

    def test_stats_on_generated_stream(self, capsys):
        assert main(
            ["stats", "--dataset", "stock", "--events", "300", "--selectivity", "price"]
        ) == 0
        output = capsys.readouterr().out
        assert "events" in output
        assert "trend groups" in output
        assert "selectivity" in output

    def test_stats_on_csv_input(self, tmp_path, capsys):
        out = tmp_path / "stream.csv"
        main(["generate", "--dataset", "transportation", "--events", "200", "--out", str(out)])
        capsys.readouterr()
        assert main(["stats", "--input", str(out), "--group", "passenger"]) == 0
        output = capsys.readouterr().out
        assert "trend groups" in output

    def test_run_on_csv_input_with_forced_granularity(self, tmp_path, capsys):
        out = tmp_path / "stock.csv"
        main(["generate", "--dataset", "stock", "--events", "200", "--out", str(out)])
        capsys.readouterr()
        assert main(["run", COUNT_QUERY, "--input", str(out), "--granularity", "event"]) == 0
        output = capsys.readouterr().out
        assert "granularity: event" in output


class TestAblationCommand:
    def test_ablation_prints_latency_and_storage_tables(self, capsys):
        assert main(["ablation", "--events", "80", "120"]) == 0
        output = capsys.readouterr().out
        assert "cogra[type]" in output
        assert "cogra[event]" in output
        assert "stored units" in output


class TestExperimentsCommand:
    def test_single_table_experiment_to_stdout(self, capsys):
        assert main(["experiments", "tables567", "--scale", "quick"]) == 0
        output = capsys.readouterr().out
        assert "# EXPERIMENTS" in output
        assert "ANY=43" in output

    def test_report_is_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["experiments", "tables349", "--out", str(out)]) == 0
        assert out.exists()
        assert "Table 9" in out.read_text()

    def test_unknown_experiment_is_reported(self, capsys):
        assert main(["experiments", "figure99"]) == 2
        assert "unknown experiments" in capsys.readouterr().out
