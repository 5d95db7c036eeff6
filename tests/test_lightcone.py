"""Restricted-support evaluation against the full dense simulation."""
import tracemalloc
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
    hard_instance,
    instance_rng,
    lightcone_expectation,
    lightcone_support,
    random_instance,
    simulate_state,
    to_ising,
    tree_gauge,
    tree_params,
)
from paintshop.qaoa import lightcone


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

    def test_statevector_engine_stays_within_its_footprint(self):
        # Per amplitude: the complex128 state, its scratch buffer and the int64
        # energies while simulating (16 + 16 + 8); then the state, float64
        # probabilities and float64 spins (16 + 8 + 8).  256 KiB covers numpy's
        # 8192-element iteration buffer, the O(m) phase tables and Python
        # objects.
        k = 16
        g = to_ising(random_instance(k, instance_rng(43, 0)))
        support = dict.fromkeys(range(k))
        tracemalloc.start()
        try:
            lightcone._corr_statevector(g.adjacency_lists(), min(g.couplings), support,
                                        tree_params(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**k + 256 * 1024

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


def free_correlations(graph, params):
    """Per coupling, <Z_i Z_j> from the public call without a memo."""
    return {edge: edge_correlation(graph, edge, params, engine="auto")
            for edge in sorted(graph.couplings)}


def memo_free(graph, params, free=None):
    """constant + sum of J <Z_i Z_j> over the memo-free correlations."""
    free = free_correlations(graph, params) if free is None else free
    return graph.constant + sum(graph.couplings[edge] * corr for edge, corr in free.items())


def memoized_correlations(graph, params):
    """Per coupling, what lightcone_expectation's memo hands back."""
    adjacency, memo = graph.adjacency_lists(), {}
    return {edge: edge_correlation(graph, edge, params, _adjacency=adjacency, _memo=memo)
            for edge in sorted(graph.couplings)}


def random_tree(rng, n):
    """Random tree on n qubits with J drawn from {-2, -1, 1, 2}."""
    return CouplingGraph(n=n, couplings={
        (int(rng.integers(0, child)), child): int(rng.choice([-2, -1, 1, 2]))
        for child in range(1, n)
    }, constant=0)


def tree_key(graph, edge, p):
    adjacency = graph.adjacency_lists()
    return lightcone._tree_key(adjacency, edge, lightcone._distances(adjacency, edge, p), p)


#: A path 0-1-...-12 with one triangle 12-13-14 at its end, couplings of
#: both signs.  Tree lightcones at p=1: the end coupling (0, 1), the
#: interior ones and (11, 12); at p=2: (0, 1), (1, 2), the interior ones and
#: (10, 11), for which 13-14 joins two boundary qubits.  The rest see the loop.
PATH_WITH_TRIANGLE = CouplingGraph(n=15, couplings={
    **{(k, k + 1): (-1) ** (k * k // 3) for k in range(12)},
    (12, 13): -1, (12, 14): 1, (13, 14): -1,
}, constant=3)


class TestTreeMemo:
    def check(self, graph, params):
        free = free_correlations(graph, params)
        for edge, corr in memoized_correlations(graph, params).items():
            assert corr == pytest.approx(free[edge], abs=1e-12)
        total = lightcone_expectation(graph, params).mean_adjacency_energy
        assert total == pytest.approx(memo_free(graph, params, free), abs=1e-12)

    @pytest.mark.parametrize("p, n", [(1, 40), (2, 30), (3, 14)])
    def test_random_words_match_memo_free(self, p, n):
        for k in range(3):
            self.check(to_ising(random_instance(n, instance_rng(46, k))), tree_params(p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hard_instances_match_memo_free(self, p):
        for n in (2, 5, 12, 30):
            self.check(to_ising(hard_instance(n)), tree_params(p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hand_built_trees_match_memo_free(self, p):
        rng = np.random.default_rng(47)
        for n in (2, 7, 15, 24):
            self.check(random_tree(rng, n), tree_params(p))
        self.check(PATH_WITH_TRIANGLE, tree_params(p))
        self.check(HAND_BUILT, tree_params(p))

    def test_coupling_strength_is_part_of_the_key(self):
        """(0, 1) and (3, 4) have the same halves, one bare end and one
        with a single |J| = 1 child, but |J_ij| = 1 against 2."""
        graph = CouplingGraph(n=6, couplings={
            (0, 1): 1, (1, 2): 1, (3, 4): 2, (4, 5): 1,
        }, constant=0)
        params = tree_params(1)
        assert tree_key(graph, (0, 1), 1) != tree_key(graph, (3, 4), 1)
        corr = memoized_correlations(graph, params)
        assert corr[(0, 1)] != pytest.approx(corr[(3, 4)], abs=1e-3)
        self.check(graph, params)

    @pytest.mark.parametrize("p, runs", [(1, 3 + 3), (2, 4 + 4)])
    def test_one_engine_run_per_tree_shape(self, monkeypatch, p, runs):
        engine_edges, public_edges = [], []
        run_engine, public = lightcone._run_engine, lightcone.edge_correlation

        def counted_engine(adjacency, edge, *args):
            engine_edges.append(edge)
            return run_engine(adjacency, edge, *args)

        def counted_public(graph, edge, *args, **kwargs):
            public_edges.append(edge)
            return public(graph, edge, *args, **kwargs)

        monkeypatch.setattr(lightcone, "_run_engine", counted_engine)
        monkeypatch.setattr(lightcone, "edge_correlation", counted_public)
        params = tree_params(p)
        total = lightcone_expectation(PATH_WITH_TRIANGLE, params).mean_adjacency_energy
        assert len(engine_edges) == runs
        assert public_edges == sorted(PATH_WITH_TRIANGLE.couplings)
        engine_edges.clear()
        assert total == pytest.approx(memo_free(PATH_WITH_TRIANGLE, params), abs=1e-12)
        assert len(engine_edges) == len(PATH_WITH_TRIANGLE.couplings)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), p=st.integers(1, 3))
    def test_key_is_a_gauge_and_relabelling_invariant_of_trees(self, seed, n, p):
        rng = np.random.default_rng(seed)
        graph = random_tree(rng, n)
        edge = sorted(graph.couplings)[int(rng.integers(len(graph.couplings)))]
        key = tree_key(graph, edge, p)
        assert key is not None

        flips = {q for q in range(n) if rng.random() < 0.5}
        perm = rng.permutation(n)
        moved = {tuple(sorted((int(perm[a]), int(perm[b])))): val
                 for (a, b), val in apply_gauge(graph, flips).couplings.items()}
        image = tuple(sorted((int(perm[edge[0]]), int(perm[edge[1]]))))
        assert tree_key(CouplingGraph(n=n, couplings=moved, constant=0), image, p) == key

        i, j = edge
        loops = [{(i, n): 1, (j, n): -1}]  # a triangle through the coupling
        if p >= 2:  # at p=1 the square's far side joins two boundary qubits
            loops.append({(i, n): 1, (n, n + 1): 2, (j, n + 1): -1})
        for extra in loops:
            loopy = CouplingGraph(n=n + 2, couplings={**graph.couplings, **extra},
                                  constant=0)
            assert tree_key(loopy, edge, p) is None

        dist = lightcone._distances(graph.adjacency_lists(), edge, p)
        acting = [e for e in graph.couplings if min(dist.get(q, p) for q in e) < p]
        changed = acting[int(rng.integers(len(acting)))]
        other = dict(graph.couplings)
        other[changed] = 3 - abs(other[changed])
        assert tree_key(CouplingGraph(n=n, couplings=other, constant=0), edge, p) != key
