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


def is_tree(adjacency, dist, p):
    """Whether the couplings acting on the lightcone (those with an endpoint
    at distance < p) form a tree on its support."""
    acting = {tuple(sorted((u, v))) for u in dist if dist[u] < p for v, _ in adjacency[u]}
    return len(acting) == len(dist) - 1


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

    def test_public_calls_build_the_adjacency_once(self):
        class CountedCouplings(dict):
            passes = 0

            def items(self):
                self.passes += 1
                return super().items()

        word = to_ising(random_instance(60, instance_rng(41, 400)))
        couplings = CountedCouplings(word.couplings)
        g = CouplingGraph(n=word.n, couplings=couplings, constant=word.constant)
        checked = couplings.passes  # construction checks every coupling once
        for edge in sorted(couplings):
            lightcone_support(g, edge, 2)
            edge_correlation(g, edge, tree_params(1))
        assert couplings.passes - checked == 1

    def test_cap_raises(self):
        g = to_ising(random_instance(200, instance_rng(41, 300)))
        edge = sorted(g.couplings)[0]
        with pytest.raises(SupportTooLarge):
            edge_correlation(g, edge, tree_params(2), support_cap=4)

    def test_named_traced_run_is_held_to_the_cap(self, monkeypatch):
        """The coupling (0, 1) and 14 leaves at p=2: all 16 qubits are kept, and
        4^16 entries exceed 2^26.  4^|kept| is an upper bound on the traced
        tensor, so the check also rejects this lightcone, which the engine
        would run in well under a second."""
        couplings = {(0, 1): 2}
        for k in range(2, 16):
            couplings[(k % 2, k)] = (1, -1, 2, -2)[k % 4]
        g = CouplingGraph(n=16, couplings=couplings, constant=0)
        runs = count_engine_runs(monkeypatch)
        with pytest.raises(SupportTooLarge, match=r"plans 4\^16 entries, cap is 2\^26"):
            edge_correlation(g, (0, 1), tree_params(2), engine="traced")
        assert runs == []

    def test_cap_is_clipped_at_the_dense_ceiling(self, monkeypatch):
        """A star of 31 qubits: every coupling's p=1 support holds all of them,
        more than the 30 qubits any cap admits."""
        star = CouplingGraph(n=31, couplings={(0, k): 1 for k in range(1, 31)}, constant=0)
        runs = count_engine_runs(monkeypatch)
        with pytest.raises(SupportTooLarge, match="has 31 qubits, cap is 30"):
            edge_correlation(star, (0, 1), tree_params(1), support_cap=40)
        with pytest.raises(SupportTooLarge, match="has 31 qubits, cap is 30"):
            lightcone_expectation(star, tree_params(1), support_cap=40)
        assert runs == []


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

    def test_engines_agree_on_a_23_qubit_support(self):
        # The coupling (0, 1) and 21 leaves: at p=1 the traced engine keeps two
        # qubits, while the dense one runs all 23 in complex128 at 40 bytes per
        # amplitude, 320 MiB; the test takes about 2.5 s and 350 MiB peak RSS.
        couplings = {(0, 1): 2}
        for k in range(2, 23):
            couplings[(k % 2, k)] = (1, -1, 2, -2)[k % 4]
        g = CouplingGraph(n=23, couplings=couplings, constant=0)
        params = tree_params(1)
        traced = edge_correlation(g, (0, 1), params, engine="traced")
        dense = edge_correlation(g, (0, 1), params, engine="statevector")
        assert dense == pytest.approx(traced, abs=1e-12)

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

    def test_traced_engine_never_holds_the_whole_density_matrix(self):
        # Each 8-kept-qubit loopy lightcone of word 0 at p=2: the two core
        # qubits keep row and column axes (4 axes); each of the six shell
        # qubits adds two on entering and gives one back when its last mixer
        # merges them, once every qubit it shares a coupling or a boundary
        # qubit with is in.  On this word the tensor never has more than 13
        # axes: 2^13 complex128 entries, 128 KiB.  Adding a qubit holds the old
        # tensor (a quarter of the new one), the new one and numpy's iteration
        # buffers, 8192 entries of 16 bytes for each of two broadcast operands:
        # 32 + 128 + 256 = 416 KiB, and a few KiB of small arrays and Python
        # objects.  1 MiB is the 4^8 density matrix alone.
        params = tree_params(2)
        g = to_ising(random_instance(300, instance_rng(102, 0)))
        adjacency = g.adjacency_lists()
        peaks = []
        for edge in sorted(g.couplings):
            dist = lightcone._distances(adjacency, edge, 2)
            if sum(d < 2 for d in dist.values()) != 8 or is_tree(adjacency, dist, 2):
                continue
            tracemalloc.start()
            try:
                lightcone._corr_traced(adjacency, dist, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(peaks) > 100
        assert max(peaks) <= 1 << 20

    # Derandomized: a complete 9-qubit graph at p=3 costs the traced engine
    # about 0.1 s per coupling, so random draws made this test's wall time
    # swing between 1.5 and 38 s; a fixed seed fixes the examples it runs.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 9), p=st.integers(1, 3))
    def test_elimination_order_does_not_change_the_value(self, data, n, p):
        """Relabelled qubits and reversed adjacency lists make the qubits enter
        and merge in another order."""
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # n couplings on n qubits always close a loop
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True))
        couplings = {e: data.draw(st.sampled_from([-2, -1, 1, 2])) for e in chosen}
        angle = st.floats(-np.pi, np.pi, allow_nan=False)
        params = QaoaParams(tuple((data.draw(angle), data.draw(angle)) for _ in range(p)))
        perm = data.draw(st.permutations(range(n)))
        g = CouplingGraph(n=n, couplings=couplings, constant=0)
        moved = CouplingGraph(n=n, couplings={
            tuple(sorted((perm[a], perm[b]))): val for (a, b), val in couplings.items()
        }, constant=0)
        reversed_adjacency = [nbrs[::-1] for nbrs in moved.adjacency_lists()]
        for a, b in sorted(couplings):
            corr = edge_correlation(g, (a, b), params, engine="traced")
            image = tuple(sorted((perm[a], perm[b])))
            other = edge_correlation(moved, image, params, engine="traced",
                                     _adjacency=reversed_adjacency)
            assert other == pytest.approx(corr, abs=1e-12)

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


def count_engine_runs(monkeypatch):
    """List that records the coupling of every engine run from here on."""
    runs, run_engine = [], lightcone._run_engine

    def counted(adjacency, edge, *args):
        runs.append(edge)
        return run_engine(adjacency, edge, *args)

    monkeypatch.setattr(lightcone, "_run_engine", counted)
    return runs


def memo_key(graph, edge, p):
    adjacency = graph.adjacency_lists()
    return lightcone._memo_key(adjacency, edge, lightcone._distances(adjacency, edge, p), p)


#: A path 0-1-...-12 with one triangle 12-13-14 at its end, couplings of
#: both signs.  Tree lightcones at p=1: the end coupling (0, 1), the
#: interior ones and (11, 12); at p=2: (0, 1), (1, 2), the interior ones and
#: (10, 11), for which 13-14 joins two boundary qubits.  The rest see the loop;
#: of them (12, 13) and (12, 14) are one lightcone up to swapping 13 and 14
#: and a gauge (flip 13: the triangle's couplings are then all +1).
PATH_WITH_TRIANGLE = CouplingGraph(n=15, couplings={
    **{(k, k + 1): (-1) ** (k * k // 3) for k in range(12)},
    (12, 13): -1, (12, 14): 1, (13, 14): -1,
}, constant=3)


def check_memo(graph, params):
    """Memoized against memo-free, per coupling and in total, to 1e-12."""
    free = free_correlations(graph, params)
    for edge, corr in memoized_correlations(graph, params).items():
        assert corr == pytest.approx(free[edge], abs=1e-12)
    total = lightcone_expectation(graph, params).mean_adjacency_energy
    assert total == pytest.approx(memo_free(graph, params, free), abs=1e-12)


class TestTreeMemo:
    @pytest.mark.parametrize("p, n", [(1, 40), (2, 30), (3, 14)])
    def test_random_words_match_memo_free(self, p, n):
        for k in range(3):
            check_memo(to_ising(random_instance(n, instance_rng(46, k))), tree_params(p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hard_instances_match_memo_free(self, p):
        for n in (2, 5, 12, 30):
            check_memo(to_ising(hard_instance(n)), tree_params(p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hand_built_trees_match_memo_free(self, p):
        rng = np.random.default_rng(47)
        for n in (2, 7, 15, 24):
            check_memo(random_tree(rng, n), tree_params(p))
        check_memo(PATH_WITH_TRIANGLE, tree_params(p))
        check_memo(HAND_BUILT, tree_params(p))

    def test_coupling_strength_is_part_of_the_key(self):
        """(0, 1) and (3, 4) have the same halves, one bare end and one
        with a single |J| = 1 child, but |J_ij| = 1 against 2."""
        graph = CouplingGraph(n=6, couplings={
            (0, 1): 1, (1, 2): 1, (3, 4): 2, (4, 5): 1,
        }, constant=0)
        params = tree_params(1)
        assert memo_key(graph, (0, 1), 1) != memo_key(graph, (3, 4), 1)
        corr = memoized_correlations(graph, params)
        assert corr[(0, 1)] != pytest.approx(corr[(3, 4)], abs=1e-3)
        check_memo(graph, params)

    # Tree shapes plus loopy lightcones: at p=1, {(12, 13), (12, 14)} and
    # (13, 14); at p=2 also (11, 12), whose ball now holds the triangle.
    @pytest.mark.parametrize("p, runs", [(1, 3 + 2), (2, 4 + 3)])
    def test_one_engine_run_per_lightcone_shape(self, monkeypatch, p, runs):
        engine_edges, public_edges = count_engine_runs(monkeypatch), []
        public = lightcone.edge_correlation

        def counted_public(graph, edge, *args, **kwargs):
            public_edges.append(edge)
            return public(graph, edge, *args, **kwargs)

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
        key = memo_key(graph, edge, p)

        flips = {q for q in range(n) if rng.random() < 0.5}
        perm = rng.permutation(n)
        moved = {tuple(sorted((int(perm[a]), int(perm[b])))): val
                 for (a, b), val in apply_gauge(graph, flips).couplings.items()}
        image = tuple(sorted((int(perm[edge[0]]), int(perm[edge[1]]))))
        assert memo_key(CouplingGraph(n=n, couplings=moved, constant=0), image, p) == key

        i, j = edge
        loops = [{(i, n): 1, (j, n): -1}]  # a triangle through the coupling
        if p >= 2:  # at p=1 the square's far side joins two boundary qubits
            loops.append({(i, n): 1, (n, n + 1): 2, (j, n + 1): -1})
        for extra in loops:
            loopy = CouplingGraph(n=n + 2, couplings={**graph.couplings, **extra},
                                  constant=0)
            assert memo_key(loopy, edge, p) != key

        dist = lightcone._distances(graph.adjacency_lists(), edge, p)
        acting = [e for e in graph.couplings if min(dist.get(q, p) for q in e) < p]
        changed = acting[int(rng.integers(len(acting)))]
        other = dict(graph.couplings)
        other[changed] = 3 - abs(other[changed])
        assert memo_key(CouplingGraph(n=n, couplings=other, constant=0), edge, p) != key


def gauge_copy(graph, flips, offset):
    """The graph's couplings, gauge-flipped on ``flips`` and moved up by ``offset``."""
    return {(a + offset, b + offset): val
            for (a, b), val in apply_gauge(graph, flips).couplings.items()}


class TestLoopyMemo:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_cycle_sign_is_part_of_the_key(self, p):
        """A triangle and a square through (0, 1), with the product of their
        couplings +1 and -1.  At p=1 the square's far side joins two boundary
        qubits and no longer acts."""
        cycles = [[(0, 1), (1, 2), (0, 2)]]
        if p >= 2:
            cycles.append([(0, 1), (1, 3), (2, 3), (0, 2)])
        for cycle in cycles:
            keys, values = [], []
            for last in (1, -1):
                graph = CouplingGraph(n=4, couplings={
                    **dict.fromkeys(cycle[:-1], 1), cycle[-1]: last,
                }, constant=0)
                keys.append(memo_key(graph, (0, 1), p))
                values.append(edge_correlation(graph, (0, 1), tree_params(p)))
            assert keys[0] != keys[1]
            assert values[0] != pytest.approx(values[1], abs=1e-3)

    def test_shared_boundary_qubit_is_part_of_the_key(self):
        """At p=2, shell qubits 3 (off 0, on the loop 0-2-3) and 4 (off 1) reach
        the boundary through one shared qubit 5 or two separate ones, 5 and 6,
        by couplings of the same |J|."""
        loop = {(0, 1): 1, (0, 2): 1, (0, 3): -1, (2, 3): 2, (1, 4): 1}
        shared = CouplingGraph(n=7, couplings={**loop, (3, 5): 1, (4, 5): 2}, constant=0)
        apart = CouplingGraph(n=7, couplings={**loop, (3, 5): 1, (4, 6): 2}, constant=0)
        assert memo_key(shared, (0, 1), 2) != memo_key(apart, (0, 1), 2)
        params = tree_params(2)
        assert edge_correlation(shared, (0, 1), params) != pytest.approx(
            edge_correlation(apart, (0, 1), params), abs=1e-3)
        union = CouplingGraph(n=14, couplings={
            **shared.couplings, **gauge_copy(apart, set(), 7)}, constant=0)
        check_memo(union, params)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_shifted_gauge_flipped_copy_costs_no_engine_run(self, monkeypatch, p):
        """Next to HAND_BUILT, a copy of it on qubits 10..19 with some spins
        flipped: each lightcone of the copy hits the memo."""
        params = tree_params(p)
        runs = count_engine_runs(monkeypatch)
        alone = lightcone_expectation(HAND_BUILT, params).mean_adjacency_energy
        alone_runs = len(runs)
        runs.clear()
        union = CouplingGraph(n=20, couplings={
            **HAND_BUILT.couplings, **gauge_copy(HAND_BUILT, {0, 3, 4, 9}, 10),
        }, constant=0)
        both = lightcone_expectation(union, params).mean_adjacency_energy
        assert len(runs) == alone_runs
        assert both == pytest.approx(2 * alone, abs=1e-12)
        check_memo(union, params)

    @pytest.mark.parametrize("original, renumbered", [
        # qubit 0 of a triangle has two bare ends, coupled by |J| = 1 and 2
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (0, 4): 2},
         {(10, 11): 1, (10, 12): 1, (11, 12): 1, (10, 13): 2, (10, 14): 1}),
        # qubit 0 reaches a boundary qubit it shares with 1 and a bare end;
        # 1 has two more bare ends, so the search starts at 0
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 4): 1, (1, 5): 1},
         {(10, 11): 1, (10, 13): 1, (11, 13): 1, (10, 12): 1, (11, 14): 1, (11, 15): 1}),
    ], ids=["coupling-strength", "shared-boundary"])
    def test_renumbered_copy_costs_no_engine_run(self, monkeypatch, original, renumbered):
        """A copy on qubits 10.. that numbers two neighbours of qubit 0 the
        other way round: the search must order them by |J| and code, not by
        qubit, for the copy to hit the memo at p=1."""
        params = tree_params(1)
        runs = count_engine_runs(monkeypatch)
        lightcone_expectation(CouplingGraph(n=10, couplings=original, constant=0), params)
        alone_runs = len(runs)
        runs.clear()
        union = CouplingGraph(n=20, couplings={**original, **renumbered}, constant=0)
        lightcone_expectation(union, params)
        assert len(runs) == alone_runs
        check_memo(union, params)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 9), p=st.integers(1, 3))
    def test_memo_matches_memo_free_on_random_loopy_graphs(self, data, n, p):
        """A random loopy graph beside a relabelled, gauge-flipped copy of
        itself, so that lightcones can hit the memo across the two."""
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # n couplings on n qubits always close a loop
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True))
        couplings = {e: data.draw(st.sampled_from([-2, -1, 1, 2])) for e in chosen}
        angle = st.floats(-np.pi, np.pi, allow_nan=False)
        params = QaoaParams(tuple((data.draw(angle), data.draw(angle)) for _ in range(p)))
        perm = data.draw(st.permutations(range(n)))
        flips = set(data.draw(st.lists(st.integers(0, n - 1))))
        graph = CouplingGraph(n=n, couplings=couplings, constant=0)
        moved = CouplingGraph(n=n, couplings={
            tuple(sorted((perm[a], perm[b]))): val
            for (a, b), val in apply_gauge(graph, flips).couplings.items()
        }, constant=0)
        union = CouplingGraph(n=2 * n, couplings={
            **couplings, **gauge_copy(moved, set(), n)}, constant=0)
        check_memo(union, params)

    def test_table1_p2_word_matches_memo_free(self):
        """Word 0 of table1-p2 (seed 102, n=300), where most loopy lightcones hit."""
        graph = to_ising(random_instance(300, instance_rng(102, 0)))
        check_memo(graph, tree_params(2))
