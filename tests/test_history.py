"""History-variable values against the dense engine: tree lightcones from the
whole-graph pass, lightcones with one or two cut couplings from their
skeleton, and the infinite-tree limit."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintshop import (
    CouplingGraph,
    SupportTooLarge,
    apply_gauge,
    edge_correlation,
    instance_rng,
    lightcone_expectation,
    random_instance,
    to_ising,
    tree_params,
)
from paintshop.qaoa import history, lightcone
from test_lightcone import (
    HAND_BUILT,
    check_memo,
    count_engine_runs,
    count_skeleton_sums,
    is_tree,
    memoized_correlations,
    random_tree,
)

#: 1 - tree_limit at p = 1..5, the fixed schedule's mean cost per car on the
#: infinite 4-regular tree, from an independent numpy prototype.
TREE_LIMIT = (0.6752404743, 0.5678167290, 0.5028710783, 0.4619528133, 0.4317572630)


def dense(graph, edge, params):
    return edge_correlation(graph, edge, params, engine="statevector")


def check_tree_table(graph, p):
    """Every tree coupling's table value against the dense engine; returns how many."""
    params, adjacency = tree_params(p), graph.adjacency_lists()
    table = history.GraphPass(graph, params, lightcone.SUPPORT_CAP)
    trees = [edge for edge in sorted(graph.couplings)
             if is_tree(adjacency, lightcone._distances(adjacency, edge, p), p)]
    for edge in trees:
        assert table.tree_value(adjacency, *edge) == pytest.approx(
            dense(graph, edge, params), abs=1e-12)
    return len(trees)


class TestTreeTable:
    @pytest.mark.parametrize("p, n, count, trees", [(1, 40, 3, 193), (2, 16, 10, 11),
                                                    (3, 12, 10, 2)])
    def test_every_tree_coupling_of_random_words(self, p, n, count, trees):
        words = (to_ising(random_instance(n, instance_rng(49, k))) for k in range(count))
        assert sum(check_tree_table(graph, p) for graph in words) == trees

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_trees(self, p):
        rng = np.random.default_rng(50)
        for n in (2, 3, 6, 9, 12):
            assert check_tree_table(random_tree(rng, n), p) == n - 1

    def test_coupling_strength_changes_the_value(self):
        """(0, 1) and (3, 4) have the same halves, one bare end and one
        with a single |J| = 1 child, but |J_ij| = 1 against 2."""
        graph = CouplingGraph(n=6, couplings={
            (0, 1): 1, (1, 2): 1, (3, 4): 2, (4, 5): 1,
        }, constant=0)
        for p in (1, 2):
            corr = memoized_correlations(graph, tree_params(p))
            assert corr[(0, 1)] != pytest.approx(corr[(3, 4)], abs=1e-3)
            check_memo(graph, tree_params(p))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), p=st.integers(1, 3))
    def test_value_is_a_gauge_and_relabelling_invariant_of_trees(self, seed, n, p):
        """J_ij <Z_i Z_j> keeps its value when spins are flipped and qubits renamed."""
        rng = np.random.default_rng(seed)
        graph = random_tree(rng, n)
        flips = {q for q in range(n) if rng.random() < 0.5}
        perm = rng.permutation(n)
        moved = CouplingGraph(n=n, couplings={
            tuple(sorted((int(perm[a]), int(perm[b])))): val
            for (a, b), val in apply_gauge(graph, flips).couplings.items()
        }, constant=0)
        params = tree_params(p)
        corr, image = memoized_correlations(graph, params), memoized_correlations(moved, params)
        for (a, b), value in graph.couplings.items():
            edge = tuple(sorted((int(perm[a]), int(perm[b]))))
            assert moved.couplings[edge] * image[edge] == pytest.approx(
                value * corr[(a, b)], abs=1e-12)


#: Lightcones of (0, 1) with one cut coupling at p = 2 and 3, each with pure
#: trees hanging off its cycle.
ONE_CUT = {
    # the triangle 0-1-2 through the coupling
    "triangle": {(0, 1): 1, (0, 2): -1, (1, 2): 2, (2, 3): 1, (0, 4): -2, (4, 5): 1, (1, 6): 1},
    # 4 is a boundary qubit at p=2 shared by the shell qubits 2 and 3
    "shared-boundary": {(0, 1): -1, (0, 2): 1, (1, 3): 2, (2, 4): -1, (3, 4): 1, (0, 5): 2,
                        (5, 6): -1, (4, 7): 1},
    # the 4-cycle 0-2-3-1, its far side between two shell qubits
    "square": {(0, 1): 2, (0, 2): 1, (2, 3): -1, (1, 3): 1, (2, 4): 2, (3, 5): -1, (4, 6): 1},
}
#: Two cut couplings: a theta graph (three paths from 0 to 1) and two
#: triangles, one at each end.
TWO_CUTS = {
    "theta": {(0, 1): 1, (0, 2): -1, (1, 2): 1, (0, 3): 2, (1, 3): -1, (2, 4): 1, (3, 5): -2},
    "two-cycles": {(0, 1): -1, (0, 2): 1, (0, 3): 1, (2, 3): -2, (1, 4): 2, (1, 5): -1,
                   (4, 5): 1, (2, 6): 1},
}


def cuts_of(graph, edge, p):
    """Acting couplings of the lightcone less |support| - 1."""
    adjacency = graph.adjacency_lists()
    dist = lightcone._distances(adjacency, edge, p)
    acting = {tuple(sorted((u, v))) for u in dist if dist[u] < p for v, _ in adjacency[u]}
    return len(acting) - (len(dist) - 1)


class TestSkeleton:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", [*ONE_CUT, *TWO_CUTS])
    def test_matches_the_dense_engine(self, monkeypatch, p, name):
        graph = CouplingGraph(n=8, couplings={**ONE_CUT, **TWO_CUTS}[name], constant=0)
        assert cuts_of(graph, (0, 1), p) == (1 if name in ONE_CUT else 2)
        params = tree_params(p)
        runs, sums = count_engine_runs(monkeypatch), count_skeleton_sums(monkeypatch)
        corr = edge_correlation(graph, (0, 1), params, _memo={})
        # skeleton sums run at p=2; at p=3 the engine does
        assert (runs, sums) == (([], [(0, 1)]) if p == 2 else ([(0, 1)], []))
        assert corr == pytest.approx(dense(graph, (0, 1), params), abs=1e-12)
        for edge, value in memoized_correlations(graph, params).items():
            assert value == pytest.approx(dense(graph, edge, params), abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_three_cuts_run_the_engine(self, monkeypatch, p):
        """K4 on 0..3, with a tail off each qubit."""
        graph = CouplingGraph(n=8, couplings={
            (0, 1): 1, (0, 2): -1, (0, 3): 2, (1, 2): 1, (1, 3): -1, (2, 3): 1,
            (0, 4): 1, (1, 5): -2, (2, 6): 1, (3, 7): -1,
        }, constant=0)
        assert cuts_of(graph, (0, 1), p) == 3
        params = tree_params(p)
        runs, sums = count_engine_runs(monkeypatch), count_skeleton_sums(monkeypatch)
        corr = edge_correlation(graph, (0, 1), params, _memo={})
        assert (runs, sums) == ([(0, 1)], [])
        assert corr == pytest.approx(dense(graph, (0, 1), params), abs=1e-12)


def regular_tree(degree, depth):
    """The coupling (0, 1) and every qubit within ``depth`` of it given
    ``degree`` neighbours, all couplings -1."""
    couplings, frontier, n = {(0, 1): -1}, [0, 1], 2
    for _ in range(depth):
        grown = []
        for u in frontier:
            for v in range(n, n + degree - 1):
                couplings[(u, v)] = -1
            grown += range(n, n + degree - 1)
            n += degree - 1
        frontier = grown
    return CouplingGraph(n=n, couplings=couplings, constant=0)


class TestTreeLimit:
    def test_reproduces_the_infinite_tree_costs(self):
        costs = [1 - history.tree_limit(tree_params(p)) for p in range(1, 6)]
        assert costs == pytest.approx(TREE_LIMIT, abs=1e-9)

    @pytest.mark.parametrize("p, degree", [(1, 4), (2, 4), (2, 3), (3, 3)])
    def test_matches_the_engine_on_a_finite_regular_tree(self, p, degree):
        graph = regular_tree(degree, p)
        traced = edge_correlation(graph, (0, 1), tree_params(p), engine="traced",
                                  support_cap=30)
        assert history.tree_limit(tree_params(p), degree) == pytest.approx(traced, abs=1e-12)


class TestFootprint:
    def test_no_pass_before_a_lightcone_fits_the_cap(self, monkeypatch):
        """At p=2 every support of HAND_BUILT exceeds 5 qubits: the sum raises at
        its first coupling, as at p=1, without running the whole-graph pass."""
        passes = []
        monkeypatch.setattr(lightcone, "GraphPass", lambda *args: passes.append(args))
        with pytest.raises(SupportTooLarge, match=r"^support of \(0, 1\) has \d+ qubits, cap is 5$"):
            lightcone_expectation(HAND_BUILT, tree_params(2), support_cap=5)
        assert passes == []

    def test_table1_p2_word_sum_stays_small(self):
        """Word 0 of table1-p2 (seed 102, n=300): the adjacency lists, memo
        keys, message classes and skeleton factors together."""
        graph = to_ising(random_instance(300, instance_rng(102, 0)))
        tracemalloc.start()
        try:
            lightcone_expectation(graph, tree_params(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_pass_holds_no_vector_per_coupling(self):
        """Per coupling, two directed ones of int64 entries: a round holds
        ``at``, the gathered classes and the gathered sizes, ``width`` each
        (48 width bytes), and at most sixteen length-2m arrays (CSR order,
        senders, ranks, labels, the classes of each round, sizes, and
        np.unique's keys, order, sorted copy and inverse; 256 bytes).  A
        word's qubits have degree at most 4, so 448 bytes in all, where one
        complex vector of 32 histories per coupling would take 512."""
        graph = to_ising(random_instance(20_000, instance_rng(51, 0)))
        assert int(graph.degrees().max()) <= 4
        tracemalloc.start()
        try:
            history.GraphPass(graph, tree_params(2), lightcone.SUPPORT_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 448 * len(graph.couplings)
