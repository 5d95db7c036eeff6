"""Restricted-support evaluation against the full dense simulation."""
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintshop import (
    CouplingGraph,
    QaoaParams,
    SupportTooLarge,
    apply_gauge,
    edge_correlation,
    expectation,
    instance_rng,
    lightcone_expectation,
    lightcone_support,
    random_instance,
    simulate_state,
    to_ising,
    tree_gauge,
    tree_params,
)


def full_correlations(graph, params):
    """<Z_i Z_j> of every coupling from the full-graph statevector."""
    probs = np.abs(simulate_state(graph, params).amplitudes) ** 2
    basis = np.arange(1 << graph.n)
    spins = 1 - 2 * ((basis[:, None] >> np.arange(graph.n)[None, :]) & 1)
    return {(i, j): float(probs @ (spins[:, i] * spins[:, j]))
            for i, j in graph.couplings}


#: Around the coupling (0, 1): the triangle 0-1-2; qubits 5 (two neighbours
#: at distance 1) and 6 (two at distance 2) are boundary qubits with two kept
#: neighbours at p = 2 and p = 3, and 2 is one at p = 1; 8 and 9 hang off
#: singly.  Couplings of both signs, with |J| = 1 and 2.
HAND_BUILT = CouplingGraph(n=10, couplings={
    (0, 1): 2, (0, 2): -1, (1, 2): 1, (0, 3): -2, (1, 4): 1, (3, 5): -1,
    (4, 5): 2, (2, 7): -1, (5, 6): 1, (6, 7): -2, (3, 8): 1, (8, 9): -1,
}, constant=0)


def reference_ball(couplings, edge, radius):
    """Independent breadth-first ball around the edge's endpoints."""
    adj = {}
    for (a, b) in couplings:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {edge[0]: 0, edge[1]: 0}
    queue = deque(edge)
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return set(dist)


class TestSupport:
    def test_matches_reference_ball(self):
        for k in range(20):
            inst = random_instance(40, instance_rng(41, k))
            g = to_ising(inst)
            edges = sorted(g.couplings)
            for p in (1, 2, 3):
                for edge in edges[:5]:
                    task = lightcone_support(g, edge, p)
                    assert set(task.support) == reference_ball(
                        g.couplings, edge, p
                    )

    def test_size_bound_for_degree_four_graphs(self):
        for k in range(20):
            g = to_ising(random_instance(60, instance_rng(41, 100 + k)))
            for edge in sorted(g.couplings)[:8]:
                for p in (1, 2):
                    task = lightcone_support(g, edge, p)
                    assert len(task.support) <= 3 ** (p + 1) - 1

    def test_included_edges_are_those_inside_support(self):
        for k in range(4):
            g = to_ising(random_instance(30, instance_rng(41, 200 + k)))
            for p in (1, 2, 3):
                for edge in sorted(g.couplings):
                    task = lightcone_support(g, edge, p)
                    support = reference_ball(g.couplings, edge, p)
                    expected = sorted(
                        e for e in g.couplings if e[0] in support and e[1] in support
                    )
                    assert list(task.included_edges) == expected

    def test_cap_raises(self):
        g = to_ising(random_instance(200, instance_rng(41, 300)))
        edge = sorted(g.couplings)[0]
        with pytest.raises(SupportTooLarge):
            edge_correlation(g, edge, tree_params(2), support_cap=4)


class TestEngines:
    def test_traced_equals_dense_per_edge(self):
        count = 0
        for k in range(12):
            inst = random_instance(30, instance_rng(42, k))
            g = to_ising(inst)
            for p in (1, 2):
                params = tree_params(p)
                for edge in sorted(g.couplings)[:6]:
                    task = lightcone_support(g, edge, p)
                    if len(task.support) > 16:
                        continue
                    a = edge_correlation(g, edge, params, engine="traced")
                    b = edge_correlation(g, edge, params, engine="statevector")
                    assert a == pytest.approx(b, abs=1e-12)
                    count += 1
        assert count > 50

    def test_unknown_engine(self):
        g = to_ising(random_instance(10, 0))
        with pytest.raises(ValueError):
            edge_correlation(g, sorted(g.couplings)[0], tree_params(1), engine="x")


class TestAgainstFullStatevector:
    def test_every_coupling_matches_full_state(self):
        """Each engine's <Z_i Z_j> against the full-graph statevector."""
        for k in range(8):
            n = 5 + k
            g = to_ising(random_instance(n, instance_rng(45, k)))
            for p in (1, 2, 3) if n <= 10 else (1, 2):
                params = tree_params(p)
                full = full_correlations(g, params)
                for edge in sorted(g.couplings):
                    for engine in ("auto", "traced", "statevector"):
                        corr = edge_correlation(g, edge, params, engine=engine)
                        assert corr == pytest.approx(full[edge], abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hand_built_loops_and_double_couplings(self, p):
        params = tree_params(p)
        full = full_correlations(HAND_BUILT, params)
        for edge in sorted(HAND_BUILT.couplings):
            for engine in ("auto", "traced"):
                corr = edge_correlation(HAND_BUILT, edge, params, engine=engine)
                assert corr == pytest.approx(full[edge], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9), p=st.integers(1, 3))
    def test_traced_matches_full_state_on_random_graphs(self, data, n, p):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        couplings = {e: data.draw(st.sampled_from([-2, -1, 1, 2])) for e in chosen}
        angle = st.floats(-np.pi, np.pi, allow_nan=False)
        params = QaoaParams(tuple((data.draw(angle), data.draw(angle)) for _ in range(p)))
        g = CouplingGraph(n=n, couplings=couplings, constant=0)
        full = full_correlations(g, params)
        for edge in sorted(couplings):
            corr = edge_correlation(g, edge, params, engine="traced")
            assert corr == pytest.approx(full[edge], abs=1e-12)

    def test_whole_graph_expectation(self):
        for k in range(25):
            n = 8 + k % 5
            inst = random_instance(n, instance_rng(43, k))
            g = to_ising(inst)
            for p in (1, 2):
                params = tree_params(p)
                full = expectation(g, params)
                local = lightcone_expectation(g, params)
                assert local.mean_adjacency_energy == pytest.approx(
                    full.mean_adjacency_energy, abs=1e-9
                )
                assert local.mean_color_changes == pytest.approx(
                    full.mean_color_changes, abs=1e-9
                )


class TestGaugeInvariance:
    def test_expectation_unchanged_on_random_trees(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            couplings = {}
            for child in range(1, n):
                par = int(rng.integers(0, child))
                couplings[(par, child)] = int(rng.choice([-1, 1]))
            g = CouplingGraph(n=n, couplings=couplings, constant=0)
            fixed = apply_gauge(g, tree_gauge(g))
            for p in (1, 2):
                angles = tuple(
                    (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                    for _ in range(p)
                )
                params = QaoaParams(angles)
                a = expectation(g, params).mean_adjacency_energy
                b = expectation(fixed, params).mean_adjacency_energy
                assert a == pytest.approx(b, abs=1e-9)


class TestCalibration:
    def test_halved_convention_wins(self):
        """The halved couplings land nearer 0.675 per car at p=1 than the
        unhalved convention, which is the same circuit with every gamma doubled."""
        rng = np.random.default_rng(7)
        params = tree_params(1)
        doubled = QaoaParams(tuple((2 * gamma, beta) for gamma, beta in params.angles))
        halved = unhalved = 0.0
        for _ in range(4):
            graph = to_ising(random_instance(80, rng))
            halved += lightcone_expectation(graph, params).mean_color_changes / 80
            unhalved += lightcone_expectation(graph, doubled).mean_color_changes / 80
        assert abs(halved / 4 - 0.675) < abs(unhalved / 4 - 0.675)
