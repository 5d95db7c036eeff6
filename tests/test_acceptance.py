"""Acceptance gate: ten quantitative criteria at their stated tolerances.

Each criterion is one test, so the verbose run prints one pass/fail line per
criterion.  Measured values are printed for the record.  These tests are
heavier than the unit files (minutes, not seconds).
"""
import itertools
import resource
import time

import numpy as np
import pytest

from paintshop import (
    CouplingGraph,
    QaoaParams,
    apply_gauge,
    color_changes,
    coloring_to_spins,
    compile_qaoa,
    easy_instance,
    expectation,
    gate_counts,
    greedy,
    greedy_subsystem,
    instance_rng,
    lightcone_expectation,
    p_alpha,
    random_instance,
    simulate_native,
    simulate_state,
    state_fidelity,
    to_ising,
    tree_gauge,
    tree_params,
    validate,
    z_expectations,
)
from paintshop import experiments
from paintshop.ising import adjacency_energy


def rss_gib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2


def test_criterion_01_table1_depth1():
    start = time.perf_counter()
    _, summary = experiments.run_table1(1, n=1000, count=20)
    elapsed = time.perf_counter() - start
    ratio = summary["mean_color_changes_per_car"]
    print(f"criterion 1: mean cost/car {ratio:.4f}, {elapsed:.0f}s")
    assert 0.665 <= ratio <= 0.685
    assert elapsed < 120


def test_criterion_02_table1_depth2():
    start = time.perf_counter()
    _, summary = experiments.run_table1(2, n=300, count=10)
    elapsed = time.perf_counter() - start
    ratio = summary["mean_color_changes_per_car"]
    peak = rss_gib()
    print(f"criterion 2: mean cost/car {ratio:.4f}, {elapsed:.0f}s, {peak:.2f}GiB")
    assert 0.548 <= ratio <= 0.588
    assert elapsed < 1800
    assert peak <= 1.5


def test_criterion_03_depth_ordering_at_n16():
    _, summary = experiments.run_fig2(n=16, count=100)
    means = {int(p): v for p, v in summary["qaoa_means"].items()}
    greedy_mean = summary["greedy_mean"]
    print(f"criterion 3: depth means {means}, greedy {greedy_mean:.3f}")
    assert means[1] > means[2] > means[3]
    assert means[4] < greedy_mean
    assert means[5] < greedy_mean
    assert 0.9 * 8 <= greedy_mean <= 1.1 * 8
    assert summary["passed"]


def test_criterion_04_heuristic_asymptotics():
    start = time.perf_counter()
    _, summary = experiments.run_heuristic_asymptotics(n=10_000, count=100)
    elapsed = time.perf_counter() - start
    means = summary["mean_color_changes_per_car"]
    print(f"criterion 4: {means}, {elapsed:.0f}s")
    assert abs(means["greedy"] - 0.5) <= 0.02
    assert abs(means["red-first"] - 2 / 3) <= 0.02
    assert abs(means["recursive-greedy"] - 0.4) <= 0.02
    assert elapsed < 60


def test_criterion_05_coupling_statistics():
    _, summary = experiments.run_coupling_stats(n=100_000, count=100)
    print(
        "criterion 5: P(-1) {frac_minus_one:.4f}, P(+1) {frac_plus_one:.4f}, "
        "P(|2|) {frac_mag_two:.4f}, degree {mean_degree:.3f}".format(**summary)
    )
    assert abs(summary["frac_minus_one"] - 2 / 3) <= 0.01
    assert abs(summary["frac_plus_one"] - 1 / 3) <= 0.01
    assert summary["frac_mag_two"] <= 0.01
    assert summary["mean_degree"] >= 3.99


def test_criterion_06_lightcone_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(4, 15))
        inst = random_instance(n, instance_rng(606, k))
        graph = to_ising(inst)
        for p in (1, 2):
            params = tree_params(p)
            full = expectation(graph, params).mean_color_changes
            local = lightcone_expectation(graph, params).mean_color_changes
            worst = max(worst, abs(full - local))
            assert abs(full - local) <= 1e-9
    print(f"criterion 6: 200 instances, worst |difference| {worst:.2e}")


def test_criterion_07_gauge_invariance():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 15))
        couplings = {}
        for child in range(1, n):
            parent = int(rng.integers(0, child))
            couplings[(parent, child)] = int(rng.choice([-1, 1]))
        graph = CouplingGraph(n=n, couplings=couplings, constant=0)
        fixed = apply_gauge(graph, tree_gauge(graph))
        for _ in range(20):
            p = int(rng.integers(1, 4))
            angles = tuple(
                (float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)))
                for _ in range(p)
            )
            params = QaoaParams(angles)
            a = expectation(graph, params).mean_adjacency_energy
            b = expectation(fixed, params).mean_adjacency_energy
            worst = max(worst, abs(a - b))
            assert abs(a - b) <= 1e-9
    print(f"criterion 7: 100 trees x 20 parameter sets, worst {worst:.2e}")


def test_criterion_08_compiler_structure_and_fidelity():
    # exact structure for arbitrary coupling graphs
    rng = np.random.default_rng(808)
    for k in range(30):
        inst = random_instance(int(rng.integers(2, 17)), instance_rng(808, k))
        graph = to_ising(inst)
        m, n = len(graph.couplings), graph.n
        for p in (1, 2, 3):
            counts = gate_counts(compile_qaoa(graph, tree_params(p)))
            assert counts.depth == p * m + (p + 1) * n
            assert counts.singles == (p + 1) * n
            assert counts.doubles == p * m
            if p == 1:
                assert counts.depth == m + 2 * n
                assert (counts.singles, counts.doubles) == (2 * n, m)
    # unitary equivalence against the reference simulator
    worst = 1.0
    for k, n in enumerate((4, 6, 8, 10, 12, 12)):
        inst = random_instance(n, instance_rng(818, k))
        graph = to_ising(inst)
        for p in (1, 2, 3):
            params = tree_params(p)
            native = simulate_native(compile_qaoa(graph, params))
            fidelity = state_fidelity(native, simulate_state(graph, params))
            worst = min(worst, fidelity)
            assert fidelity >= 1 - 1e-9
    print(f"criterion 8: structure exact, worst fidelity 1-{1 - worst:.2e}")


def test_criterion_09_hard_and_easy_instances():
    for n in range(2, 15):
        inst = easy_instance(n)
        state = simulate_state(to_ising(inst), tree_params(1))
        assert p_alpha(inst, state, 2.0) == 1.0
    _, summary = experiments.run_fig6(sizes=(10, 12, 14, 16, 18, 20), p=1, alpha=5.0)
    print(
        "criterion 9: easy mass 1.0 for n=2..14; hard masses "
        f"{[round(v, 4) for v in summary['p_alpha']]}, slope {summary['log_slope']:.4f}"
    )
    assert summary["strictly_decreasing"]
    assert summary["log_slope"] < 0


def test_criterion_10_identity_suite():
    # (a) cost identity for every spin configuration, instances up to n=12
    rng = np.random.default_rng(1010)
    for k in range(24):
        n = int(rng.integers(1, 13))
        inst = random_instance(n, instance_rng(1010, k))
        graph = to_ising(inst)
        seq = inst.sequence
        occ = inst.occurrence.astype(np.int64)
        z = np.arange(1 << n, dtype=np.int64)
        colors = ((z[:, None] >> seq[None, :]) & 1) ^ occ[None, :]
        costs = np.abs(np.diff(colors, axis=1)).sum(axis=1)
        spins = 1 - 2 * ((z[:, None] >> np.arange(n)[None, :]) & 1)
        for idx in (0, (1 << n) - 1, int(rng.integers(0, 1 << n))):
            e = adjacency_energy(graph, spins[idx])
            assert costs[idx] == (e + 2 * n - 1) / 2
        pa = np.array(list(graph.couplings), dtype=np.int64).reshape(-1, 2)
        pv = np.array(list(graph.couplings.values()), dtype=np.int64)
        pair_term = (spins[:, pa[:, 0]] * spins[:, pa[:, 1]]) @ pv
        energies = graph.constant + pair_term
        assert np.array_equal(costs, (energies + 2 * n - 1) // 2)
    # (b) single-qubit expectations vanish for every table schedule
    for p in (1, 2, 3, 4, 5):
        inst = random_instance(9, instance_rng(1011, p))
        state = simulate_state(to_ising(inst), tree_params(p))
        assert np.abs(z_expectations(state)).max() <= 1e-9
    # (c) greedy reaches its subsystem ground energy: exhaustive words for
    # n <= 4, random words up to n = 14
    for n in (1, 2, 3, 4):
        base = [i for i in range(n) for _ in range(2)]
        for word in set(itertools.permutations(base)):
            inst = validate(list(word))
            sub = greedy_subsystem(inst)
            spins = coloring_to_spins(greedy(inst))
            assert adjacency_energy(sub, spins) == -(n - 1)
    for k in range(200):
        n = int(rng.integers(5, 15))
        inst = random_instance(n, instance_rng(1012, k))
        sub = greedy_subsystem(inst)
        spins = coloring_to_spins(greedy(inst))
        assert adjacency_energy(sub, spins) == -(n - 1)
    print("criterion 10: identities hold (costs, <Z_i>=0, greedy ground state)")
