"""Tests of the benchmark itself, on small words.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench_cli
import worker
import workloads
from paintshop.experiments import run_fig2, run_heuristic_asymptotics, run_table1
from paintshop.qaoa import lightcone_support
from speedprobe import Sampler
from tracing import NullTracer, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SMALL = {
    "table1-p2": dict(n=20, pool=2, warm_n=8),
    "table1-p1": dict(n=60, pool=3, warm_n=8),
    "classical-100k": dict(n=400, pool=2, warm_n=8),
    "exact-n16": dict(n=10, pool=2, warm_n=8),
}

COUNTS = (
    "qaoa.lightcone.couplings",
    "qaoa.lightcone.traced_frac",
    "qaoa.lightcone.support_qubits.max",
    "qaoa.lightcone.kept_qubits.max",
    "qaoa.lightcone.state_bytes.max",
    "qaoa.lightcone.unit_tree_frac",
    "qaoa.lightcone.repeat_shape_frac",
    "qaoa.statevector.state_bytes",
    "ioncompile.gates",
)


def small(name: str) -> workloads.Workload:
    return replace(WORKLOADS[name], **SMALL[name])


def words(n: int, seed: int, count: int):
    return [workloads.random_instance(n, workloads.instance_rng(seed, i)) for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts_and_checks(name):
    runs = [worker.run(small(name), seed=7, seconds=math.inf, trace=True) for _ in range(2)]
    for key in ("attempted", "failed", "failures", "instances", "census"):
        assert runs[0][key] == runs[1][key]
    assert runs[0]["failed"] == 0, runs[0]["failures"]
    for key in COUNTS:
        assert runs[0]["per_layer"][key] == runs[1]["per_layer"][key]
    metrics = {name: m["value"] for name, m in runs[0]["per_layer"].items()}
    assert set(metrics) == set(worker.PER_LAYER_UNITS)
    assert all(value > 0 for value in metrics.values()), metrics
    busy = sum(v for k, v in metrics.items() if k.endswith(".s") and not k.startswith("trace."))
    assert busy + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])


@pytest.mark.parametrize("p,n", [(1, 60), (2, 20)])
def test_table1_values_equal_experiment_rows(p, n):
    rows, _ = run_table1(p, n=n, count=2, seed=101)
    run = workloads.table1_pipeline(p)
    library = workloads.lightcone_module.edge_correlation
    for row, word in zip(rows, words(n, 101, 2)):
        for tr in (NullTracer(), Tracer()):
            out = run(word, tr)
            assert out["mean_adj"] == row["mean_energy_adj"]
            assert out["mean_cc"] == row["mean_color_changes"]
        assert workloads.lightcone_module.edge_correlation is library
        edges = [attrs["edge"] for name, *_, attrs in tr.spans if name == "qaoa.edge_correlation"]
        assert edges == sorted(workloads.to_ising(word).couplings)


def test_classical_values_equal_heuristic_rows():
    rows, _ = run_heuristic_asymptotics(n=300, count=2, seed=104)
    names = {"greedy": "greedy", "red-first": "red_first", "recursive-greedy": "recursive_greedy"}
    outs = [workloads.classical_pipeline(w, NullTracer()) for w in words(300, 104, 2)]
    for row in rows:
        assert outs[row["instance_id"]][names[row["algo"]]][1] == row["color_changes"]


def test_exact_values_equal_fig2_rows():
    rows, _ = run_fig2(n=16, count=2, seed=103)
    for row, word in zip(rows, words(16, 103, 2)):
        out = workloads.exact_pipeline(word, NullTracer())
        assert out["dense"] == [row[f"qaoa_p{p}"] for p in range(1, 6)]


def test_census_sizes_match_library_supports():
    word = words(60, 3, 1)[0]
    graph = workloads.to_ising(word)
    for p in (1, 2):
        for cone in workloads.lightcone_census(graph, p):
            assert cone.support == len(lightcone_support(graph, cone.edge, p).support)
            assert cone.kept == len(lightcone_support(graph, cone.edge, p - 1).support)


@pytest.mark.parametrize("name,corrupt", [
    ("table1-p1", lambda out: {**out, "mean_cc": out["mean_cc"] + 0.5}),
    # A wrong sum with a consistent cost, as a broken evaluator would give.
    ("table1-p2", lambda out: {"mean_adj": out["mean_adj"] + 1e-6,
                               "mean_cc": out["mean_cc"] + 5e-7}),
    ("classical-100k", lambda out: {**out, "greedy": (out["greedy"][0], out["greedy"][1] + 1)}),
    ("exact-n16", lambda out: {**out, "opt": out["opt"] - 1}),
])
def test_check_flags_a_corrupted_result(name, corrupt):
    workload = small(name)
    word = words(workload.n, 5, 1)[0]
    out = workload.compact(workload.run(word, NullTracer()))
    assert workload.check(word, out, 5, 0) == []
    assert workload.check(word, corrupt(out), 5, 0)


def test_failing_instance_is_counted_not_fatal():
    base = small("table1-p1")

    def flaky(word, tr):
        out = base.run(word, tr)
        if tr.instance == 1:
            return {**out, "mean_cc": -1.0}
        if tr.instance == 2:
            raise RuntimeError("injected")
        return out

    result = worker.run(replace(base, run=flaky), seed=7, seconds=math.inf, trace=False)
    assert (result["attempted"], result["failed"]) == (3, 2)


def test_sampler_brackets_the_phase_and_takes_out_its_own_time():
    with Sampler() as sampler:
        start = time.monotonic()
        deadline = start + 1.2
        while time.monotonic() < deadline:  # busy, so the handler runs on time
            pass
        end = time.monotonic()
    assert sampler.samples[0][0] < start and sampler.samples[-1][0] > end
    inside = [s for t, s in sampler.samples if start <= t <= end]
    assert inside
    assert sampler.kernel_seconds(start, end) == sum(inside)
    assert sampler.reference(start, end) > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_cli.WORKLOAD_NAMES)
    assert set(bench_cli.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref", "setup_s", "peak_rss_mib"}


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
