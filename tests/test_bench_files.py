"""Every checked-in ``BENCH_*.json`` is a complete, self-consistent record."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_some_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.fixture(params=BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def bench(request):
    return json.loads(request.param.read_text())


def test_has_the_header_fields(bench):
    for field in ("label", "claim", "command", "protocol", "host"):
        assert bench.get(field), f"missing {field}"


def test_workload_statistics_are_consistent(bench):
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert len(workload["runs"]) == pairs, name
        for side in ("parent", "change"):
            counted = re.fullmatch(r"(\d+) of (\d+)", workload["failed"][side])
            assert counted and int(counted[1]) <= int(counted[2]), (name, side)
            for metric, stats in workload["metrics"].items():
                s = stats[side]
                assert s["n"] == pairs, (name, metric, side)
                assert s["q1"] <= s["median"] <= s["q3"], (name, metric, side)


def test_some_workload_has_ten_pairs(bench):
    assert max(w["pairs"] for w in bench["workloads"].values()) >= 10


def test_names_come_from_the_benchmark(bench):
    # A workload key may carry a variant after "@" (another seed, another environment).
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for key, workload in bench["workloads"].items():
        assert key.split("@")[0] in workloads, key
        assert set(workload["metrics"]) <= metrics, key
