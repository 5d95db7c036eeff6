"""Command line surface: determinism, column layout, exit codes."""
import json

import pytest

from paintshop.cli import main, solve_instance, UnknownAlgo
from paintshop import validate


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse errors
        return exc.code


def drop_timing(text: str) -> list:
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert rows[0][-1] == "wall_time_ms"
    return [row[:-1] for row in rows]


@pytest.fixture()
def instances(tmp_path):
    path = tmp_path / "inst.jsonl"
    assert run_cli("gen", "--n", "12", "--count", "6", "--seed", "3",
                   "--out", str(path)) == 0
    return path


class TestGen:
    def test_identical_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run_cli("gen", "--n", "9", "--count", "4", "--seed", "11",
                           "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_nonpositive_n(self, tmp_path):
        assert run_cli("gen", "--n", "0",
                       "--out", str(tmp_path / "x.jsonl")) == 2

    def test_rejects_negative_seed(self, tmp_path):
        assert run_cli("gen", "--n", "3", "--seed", "-1",
                       "--out", str(tmp_path / "x.jsonl")) == 2


class TestSolve:
    def test_columns_and_determinism(self, instances, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("solve", "--algo", "greedy", "--in", str(instances),
                           "--out", str(path)) == 0
        ra, rb = drop_timing(a.read_text()), drop_timing(b.read_text())
        assert ra == rb
        assert ra[0] == ["instance_id", "n", "algo", "color_changes"]
        assert len(ra) == 7

    def test_every_algo_runs(self, instances, tmp_path):
        for algo in ("greedy", "red-first", "recursive-greedy",
                     "brute-force", "random-baseline"):
            out = tmp_path / f"{algo}.csv"
            assert run_cli("solve", "--algo", algo, "--in", str(instances),
                           "--out", str(out)) == 0

    def test_baseline_column_is_analytic_float(self, instances, tmp_path):
        out = tmp_path / "base.csv"
        run_cli("solve", "--algo", "random-baseline", "--in", str(instances),
                "--out", str(out))
        values = [row[3] for row in drop_timing(out.read_text())[1:]]
        assert all("." in v for v in values)

    def test_unknown_algo_is_a_usage_error(self, instances, tmp_path):
        assert run_cli("solve", "--algo", "annealing", "--in", str(instances),
                       "--out", str(tmp_path / "x.csv")) == 2
        with pytest.raises(UnknownAlgo):
            solve_instance(validate([0, 1, 0, 1]), "annealing")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_cap_is_a_usage_error(self, instances, tmp_path,
                                              capsys, cap):
        assert run_cli("solve", "--algo", "brute-force", "--cap-qubits", cap,
                       "--in", str(instances),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert "argument --cap-qubits: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("[1,2]", "error: line 2: expected a JSON object, got list"),
        ('{"sequence":[0,0]}', "error: line 2: missing key 'n'"),
        ('{"n":1,"sequence":[0.5,0.5]}',
         "error: line 2: car identifiers must be integers, got 0.5"),
    ])
    def test_malformed_line_is_a_one_line_usage_error(self, tmp_path, capsys,
                                                      line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":1,"sequence":[0,0]}\n' + line + "\n")
        assert run_cli("solve", "--algo", "greedy", "--in", str(path),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_missing_input_file(self, tmp_path):
        assert run_cli("solve", "--algo", "greedy",
                       "--in", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "x.csv")) == 2


class TestQaoa:
    def test_methods_agree_and_columns(self, instances, tmp_path):
        sv, lc = tmp_path / "sv.csv", tmp_path / "lc.csv"
        assert run_cli("qaoa", "--p", "1", "--in", str(instances),
                       "--out", str(sv)) == 0
        assert run_cli("qaoa", "--p", "1", "--method", "lightcone",
                       "--in", str(instances), "--out", str(lc)) == 0
        ra, rb = drop_timing(sv.read_text()), drop_timing(lc.read_text())
        assert ra[0] == ["instance_id", "n", "p", "method",
                         "mean_energy_adj", "mean_color_changes"]
        for row_a, row_b in zip(ra[1:], rb[1:]):
            assert float(row_a[5]) == pytest.approx(float(row_b[5]), abs=1e-9)

    def test_sampled_estimates_are_seeded(self, instances, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("qaoa", "--p", "1", "--shots", "200", "--seed", "5",
                           "--in", str(instances), "--out", str(path)) == 0
        assert drop_timing(a.read_text()) == drop_timing(b.read_text())

    def test_depth_without_schedule_is_a_usage_error(self, instances, tmp_path):
        assert run_cli("qaoa", "--p", "6", "--in", str(instances),
                       "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--shots", "-1"),
        ("--cap-qubits", "0"),
        ("--cap-qubits", "-3"),
        ("--seed", "-1"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, instances, tmp_path,
                                                capsys, flag, value):
        for method in ("statevector", "lightcone"):
            assert run_cli("qaoa", "--p", "1", "--method", method, flag, value,
                           "--in", str(instances),
                           "--out", str(tmp_path / "x.csv")) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert f"argument {flag}: must be >=" in err

    def test_shots_with_lightcone_is_a_usage_error(self, instances, tmp_path):
        assert run_cli("qaoa", "--p", "1", "--method", "lightcone",
                       "--shots", "10", "--in", str(instances),
                       "--out", str(tmp_path / "x.csv")) == 2


class TestExperiment:
    def test_pass_verdict_exit_zero_and_artifacts(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli("experiment", "heuristic-asymptotics",
                       "--n", "2000", "--count", "10", "--out", str(out))
        assert code == 0
        csv_path = out / "heuristic-asymptotics.csv"
        summary_path = out / "heuristic-asymptotics-summary.json"
        assert csv_path.exists() and summary_path.exists()
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is True
        assert summary["n"] == 2000

    def test_fail_verdict_exit_one(self, tmp_path):
        out = tmp_path / "expfail"
        code = run_cli("experiment", "heuristic-asymptotics",
                       "--n", "10", "--count", "2", "--out", str(out))
        assert code == 1
        summary = json.loads(
            (out / "heuristic-asymptotics-summary.json").read_text()
        )
        assert summary["passed"] is False

    def test_summary_bytes_are_deterministic(self, tmp_path):
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            run_cli("experiment", "heuristic-asymptotics",
                    "--n", "500", "--count", "4", "--out", str(out))
            blobs.append((out / "heuristic-asymptotics-summary.json").read_bytes())
            blobs.append((out / "heuristic-asymptotics.csv").read_bytes())
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]

    @pytest.mark.parametrize("flag, value", [
        ("--cap-qubits", "0"),
        ("--cap-qubits", "-3"),
        ("--seed", "-1"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys,
                                                flag, value):
        assert run_cli("experiment", "table1-p1", "--n", "20", "--count", "1",
                       flag, value, "--out", str(tmp_path / "x")) == 2
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    def test_unknown_name_rejected_by_parser(self, tmp_path):
        assert run_cli("experiment", "fig9", "--out", str(tmp_path / "x")) == 2
