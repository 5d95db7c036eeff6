"""Command line surface: determinism, column layout, exit codes."""
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import paintshop
from paintshop import (
    DegenerateBaseline,
    NonUnitCoupling,
    NotATree,
    experiments,
    validate,
)
from paintshop.cli import _USAGE_ERRORS, main, solve_instance, UnknownAlgo
from paintshop.experiments import EXPERIMENTS
from paintshop.heuristics import SOLVERS

README = Path(__file__).resolve().parents[1] / "README.md"

#: The flags each experiment takes, as the README's experiment table lists them.
ACCEPTED = {
    "table1-p1": {"--n", "--count", "--seed"},
    "table1-p2": {"--n", "--count", "--seed"},
    "fig2": {"--n", "--count", "--seed"},
    "fig3": {"--count", "--seed", "--p"},
    "fig6": {"--p", "--alpha"},
    "coupling-stats": {"--n", "--count", "--seed"},
    "heuristic-asymptotics": {"--n", "--count", "--seed"},
}
FLAG_VALUES = {"--n": "99", "--count": "1", "--seed": "1", "--p": "1",
               "--alpha": "3", "--cap-qubits": "26"}
REJECTED = [(name, flag) for name, taken in ACCEPTED.items()
            for flag in FLAG_VALUES if flag not in taken]
#: Flags of ``solve`` and ``qaoa`` that the experiment parser does not have, so
#: argparse rejects them before any runner is looked up.
NOT_EXPERIMENT_FLAGS = {"--cap-qubits"}

#: sha256 of each per-word command's output on ``gen --n 12 --count 4 --seed 3``:
#: the JSONL file for ``gen``, else the CSV with its wall_time_ms column cut.
PER_WORD_DIGESTS = {
    ("gen",): "274722098df2ccd79aa30ca9b68db0b00de7d68a807d791e74073e840523309a",
    ("solve", "--algo", "greedy"):
        "5aa6b2572737a3df59bd05e42bce3c0b9421974dfd935ad71dc09f9a097f82ca",
    ("solve", "--algo", "red-first"):
        "b52028f3231dd9290cf9a98acd045fbac3b8ea4d2baaff57e9ca82ad1ec27336",
    ("solve", "--algo", "recursive-greedy"):
        "f63c2aee8d21c02766fea2318809267080a44f8770599f7d797f46601b19ef01",
    ("solve", "--algo", "brute-force"):
        "b80baae698642d6f6314bba0c555d275b3dea027fdcad308959835ca7226ff90",
    ("solve", "--algo", "random-baseline"):
        "7ead14761a0eaf128f077c8b5dfdc4261f2213d5056a237a8bace5bf8464ea2c",
    ("qaoa", "--p", "2", "--method", "statevector"):
        "98a7702142b91fc9ce8dd47c271a99c4effff5681078e8f926b6c39abc16af27",
    ("qaoa", "--p", "2", "--method", "lightcone"):
        "3f440e95538a158c7e80505f8823431d2652cc17047a39e94a47cf1d91418c6c",
    ("qaoa", "--p", "1", "--shots", "100", "--seed", "5"):
        "91f4e29773c38bf6090f7ce42db1b258ac2461213291d5ff817939b2bc7a2d40",
}


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


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(paintshop.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "paintshop", "--help"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: paintshop ")


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

    @pytest.mark.parametrize("n", [2**30 + 1, 10**20])
    def test_cars_beyond_the_ceiling_are_a_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "x.jsonl"
        assert run_cli("gen", "--n", str(n), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: random words capped at {2**30} cars, got {n}"
        ]
        assert not out.exists()


class TestPerWordBytes:
    @pytest.mark.parametrize("command", PER_WORD_DIGESTS, ids=" ".join)
    def test_output_matches_recorded_digest(self, tmp_path, command):
        words, out = tmp_path / "words.jsonl", tmp_path / "out.csv"
        assert run_cli("gen", "--n", "12", "--count", "4", "--seed", "3",
                       "--out", str(words)) == 0
        if command == ("gen",):
            data = words.read_bytes()
        else:
            assert run_cli(*command, "--in", str(words), "--out", str(out)) == 0
            data = "".join(",".join(row) + "\n" for row in drop_timing(out.read_text())).encode()
        assert hashlib.sha256(data).hexdigest() == PER_WORD_DIGESTS[command]


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

    def test_brute_force_beyond_32_cars_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "big.jsonl"
        assert run_cli("gen", "--n", "34", "--out", str(path)) == 0
        assert run_cli("solve", "--algo", "brute-force", "--cap-qubits", "40",
                       "--in", str(path), "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: brute force capped at 32 cars, got 34"
        ]

    @pytest.mark.parametrize("line, message", [
        ("[1,2]", "error: line 2: expected a JSON object, got list"),
        ('{"sequence":[0,0]}', "error: line 2: missing key 'n'"),
        ('{"n":true,"sequence":[0,0]}', 'error: line 2: "n" must be an integer, got true'),
        ('{"n":1.0,"sequence":[0,0]}', 'error: line 2: "n" must be an integer, got 1.0'),
        ('{"n":1,"sequence":[0.5,0.5]}',
         "error: line 2: car identifiers must be integers, got 0.5"),
        ('{"n":1,"sequence":[0,0] "x":1}',
         "error: line 2: Expecting ',' delimiter at column 25"),
        pytest.param("[" * 100_000, "error: line 2: maximum recursion depth exceeded"
                     " while decoding a JSON array from a unicode string",
                     id="deep-nesting"),
        pytest.param('{"n":1,"sequence":[%s]}' % ("1" * 5000),
                     "error: line 2: Exceeds the limit (4300 digits) for integer string"
                     " conversion: value has 5000 digits; use"
                     " sys.set_int_max_str_digits() to increase the limit",
                     id="5000-digit-int"),
    ])
    def test_malformed_line_is_a_one_line_usage_error(self, tmp_path, capsys,
                                                      line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":1,"sequence":[0,0]}\n' + line + "\n")
        assert run_cli("solve", "--algo", "greedy", "--in", str(path),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_non_utf8_input_is_a_one_line_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"n":1,"sequence":[0,0]}\n'.encode("utf-16-le"))
        assert run_cli("solve", "--algo", "greedy", "--in", str(path),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: not UTF-8 text: invalid start byte"
        ]

    def test_identifier_beyond_64_bits_is_a_one_line_usage_error(self, tmp_path,
                                                                 capsys):
        path = tmp_path / "big.jsonl"
        path.write_text('{"n":1,"sequence":[%d,%d]}\n' % (10**23, 10**23))
        assert run_cli("solve", "--algo", "greedy", "--in", str(path),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: line 1: car identifier {10**23} exceeds 64 bits"
        ]

    def test_missing_input_file(self, tmp_path):
        assert run_cli("solve", "--algo", "greedy",
                       "--in", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_usage_errors_hold_no_unreachable_handler(self):
        # the CLI never calls tree_gauge, apply_gauge or delta_c_metric
        assert {NotATree, NonUnitCoupling, DegenerateBaseline}.isdisjoint(_USAGE_ERRORS)


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

    @pytest.mark.parametrize("shots", [[], ["--shots", "10"]])
    def test_statevector_beyond_30_qubits_is_a_usage_error(self, tmp_path, capsys,
                                                           shots):
        path = tmp_path / "big.jsonl"
        assert run_cli("gen", "--n", "70", "--out", str(path)) == 0
        assert run_cli("qaoa", "--p", "1", "--cap-qubits", "80", *shots,
                       "--in", str(path), "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: statevector capped at 30 qubits, got 70"
        ]

    @pytest.mark.parametrize("shots", [2**30 + 1, 10**20])
    def test_shots_beyond_the_ceiling_are_a_usage_error(self, instances, tmp_path,
                                                        capsys, shots):
        assert run_cli("qaoa", "--p", "1", "--shots", str(shots), "--in", str(instances),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: sampling capped at {2**30} shots, got {shots}"
        ]

    def test_support_beyond_the_cap_is_a_usage_error(self, instances, tmp_path, capsys):
        assert run_cli("qaoa", "--p", "1", "--method", "lightcone", "--cap-qubits", "2",
                       "--in", str(instances), "--out", str(tmp_path / "x.csv")) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: support of \(\d+, \d+\) has \d+ qubits, cap is 2", line)

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
        ("--alpha", "nan"),
        ("--alpha", "inf"),
        ("--alpha", "0.5"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys,
                                                flag, value):
        out = tmp_path / "x"
        assert run_cli("experiment", "table1-p1", "--n", "20", "--count", "1",
                       flag, value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        if flag in NOT_EXPERIMENT_FLAGS:  # no range to check: no such experiment flag
            assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        else:
            assert f"argument {flag}: must be >=" in err

    def test_no_couplings_is_a_one_line_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("experiment", "coupling-stats", "--n", "1",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: no couplings in the given instances"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["table1-p1", "fig2", "heuristic-asymptotics",
                                      "coupling-stats"])
    def test_cars_beyond_the_ceiling_are_a_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "x"
        assert run_cli("experiment", name, "--n", str(2**30 + 1), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: random words capped at {2**30} cars, got {2**30 + 1}"
        ]
        assert not out.exists()

    def test_unknown_name_rejected_by_parser(self, tmp_path):
        assert run_cli("experiment", "fig9", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("name, flag", REJECTED)
    def test_flag_the_runner_does_not_take_is_a_usage_error(self, tmp_path, capsys,
                                                            name, flag):
        out = tmp_path / "x"
        assert run_cli("experiment", name, flag, FLAG_VALUES[flag],
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        if flag in NOT_EXPERIMENT_FLAGS:
            assert captured.err.splitlines()[-1] == (
                f"paintshop: error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}")
            assert "Traceback" not in captured.err
        else:
            assert captured.err.splitlines() == [f"error: {name} does not take {flag}"]
        assert captured.out == ""
        assert not out.exists()

    def test_table1_p2_defaults_to_n300_count10(self, monkeypatch):
        seen = []

        def fake_lightcone(graph, params):
            seen.append(graph.n)
            return SimpleNamespace(mean_adjacency_energy=0.0, mean_color_changes=0.0)

        monkeypatch.setattr(experiments, "lightcone_expectation", fake_lightcone)
        rows, summary = experiments.run_table1(2)
        assert (summary["n"], summary["count"]) == (300, 10)
        assert seen == [300] * 10 and len(rows) == 10

    def test_fig3_rows_and_minima(self):
        sizes, alphas = (4, 5, 6), ("1", "2", "3")
        rows, summary = experiments.run_fig3(sizes=sizes, count=20)
        assert len(rows) == 60
        for row in rows:
            masses = [row[f"p_alpha_{a}"] for a in alphas]
            assert all(0 <= m <= 1 for m in masses) and masses == sorted(masses)
        for a in alphas:
            assert summary["min_p_alpha"][a] == [
                min(row[f"p_alpha_{a}"] for row in rows if row["n"] == n) for n in sizes
            ]
        assert experiments.run_fig3(sizes=sizes, count=20) == (rows, summary)

    def test_cli_writes_the_runner_result(self, tmp_path):
        name = "heuristic-asymptotics"
        out = tmp_path / "cli"
        assert run_cli("experiment", name, "--n", "500", "--count", "4",
                       "--out", str(out)) in (0, 1)
        rows, summary = EXPERIMENTS[name](n=500, count=4)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert (out / f"{name}.csv").read_bytes() == buf.getvalue().encode()
        expected = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        assert (out / f"{name}-summary.json").read_bytes() == expected.encode()


class TestReadme:
    """The README's algorithm list and experiment table follow the registries."""

    def test_algorithm_list_matches_solvers(self):
        text = README.read_text(encoding="utf-8")
        paragraph = re.search(r"^Algorithms: (.*?)\n\n", text, re.M | re.S).group(1)
        names = re.findall(r"`([a-z-]+)`", paragraph)
        assert tuple(names) == (*SOLVERS, "brute-force", "random-baseline")

    def test_experiment_table_matches_registry(self):
        text = README.read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z0-9-]+)` *\| ([^|]*)\|", text, re.M)
        assert [name for name, _ in rows] == list(EXPERIMENTS)
        assert list(ACCEPTED) == list(EXPERIMENTS)
        for name, flags in rows:
            assert set(re.findall(r"--[a-z-]+", flags)) == ACCEPTED[name], name
