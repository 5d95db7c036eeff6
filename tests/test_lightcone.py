"""Restricted-support evaluation against the full dense simulation."""
import hashlib
import itertools
import re
import tracemalloc
from collections import deque
from functools import cached_property

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
from paintshop.experiments import run_table1
from paintshop.qaoa import history, lightcone


def full_correlations(graph, params):
    """<Z_i Z_j> of every pair i < j from the full-graph statevector."""
    probs = np.abs(simulate_state(graph, params).amplitudes) ** 2
    basis = np.arange(1 << graph.n)
    spins = 1 - 2 * ((basis[:, None] >> np.arange(graph.n)[None, :]) & 1)
    return {(i, j): float(probs @ (spins[:, i] * spins[:, j]))
            for i, j in itertools.combinations(range(graph.n), 2)}


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

    def test_public_calls_build_the_adjacency_once(self, monkeypatch):
        built = []
        build = CouplingGraph._adjacency.func

        def counted(graph):
            built.append(graph)
            return build(graph)

        adjacency = cached_property(counted)
        adjacency.__set_name__(CouplingGraph, "_adjacency")
        monkeypatch.setattr(CouplingGraph, "_adjacency", adjacency)
        g = to_ising(random_instance(60, instance_rng(41, 400)))
        for edge in sorted(g.couplings):
            lightcone_support(g, edge, 2)
            edge_correlation(g, edge, tree_params(1))
        # the dense engine's subgraphs build adjacencies of their own
        assert sum(graph is g for graph in built) == 1

    def test_cap_raises(self):
        g = to_ising(random_instance(200, instance_rng(41, 300)))
        edge = sorted(g.couplings)[0]
        with pytest.raises(SupportTooLarge):
            edge_correlation(g, edge, tree_params(2), support_cap=4)

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


#: The path 0-1-2-3, couplings of both signs.
PATH = CouplingGraph(n=4, couplings={(0, 1): 1, (1, 2): -1, (2, 3): 1}, constant=0)


class TestBadPairs:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_a_pair_that_is_not_two_qubits_raises_everywhere(self, p):
        """A repeated qubit, one outside 0..n-1, a third one or one that is not an
        int raise ValueError from every engine, through the memo and from the
        support, and a memo that saw them still gives each coupling its memo-free
        value.  At p=1 the memo's table is read before the search, so pairs that
        equal a coupling but are not ints skip the memo there."""
        params = tree_params(p)
        not_ints = [(0.0, 1), (True, 2), (np.float64(0), 1)]
        for graph in (PATH, TRIANGLE_WITH_TAIL):
            memo = {}
            edge_correlation(graph, (0, 1), params, _memo=memo)
            for pair in [(2, 2), (-1, 0), (0, graph.n), (0, 1, 2), *not_ints]:
                paths = [{"engine": "auto"}, {"engine": "traced"}, {"engine": "statevector"}]
                if p > 1 or not any(pair is q for q in not_ints):
                    paths.append({"_memo": memo})
                for kwargs in paths:
                    with pytest.raises(ValueError, match=re.escape(f"pair {pair} is not")):
                        edge_correlation(graph, pair, params, **kwargs)
                with pytest.raises(ValueError, match=re.escape(f"pair {pair} is not")):
                    lightcone_support(graph, pair, p)
            for edge in sorted(graph.couplings):
                assert edge_correlation(graph, edge, params, _memo=memo) == pytest.approx(
                    edge_correlation(graph, edge, params), abs=1e-12)


#: Support cap of the tests that name the elimination on graphs of at most 9
#: qubits, which no support of theirs exceeds: a plan there may hold 2^cap
#: entries, 16 MiB at 20 against 1 GiB at the default 26.
SMALL_CAP = 20


def acting_couplings(adjacency, dist, p):
    """(u, v, J) of every coupling with an end u at distance < p, as
    ``edge_correlation`` hands them to the elimination."""
    return [(u, v, J) for u, d in dist.items() if d < p
            for v, J in adjacency[u] if dist[v] == p or u < v]


def whole_plan(graph, edge, params):
    """The elimination a memo-free call plans for the coupling."""
    adjacency = graph.adjacency_lists()
    dist = lightcone._distances(adjacency, edge, params.p)
    acting = acting_couplings(adjacency, dist, params.p)
    return history.Elimination(history.tables_of(params), dist, acting), dist


class TestPlan:
    @pytest.mark.parametrize("p", [2, 3])
    def test_automatic_choice_follows_the_plan(self, monkeypatch, p):
        """On four n=16 words (seed 77) the automatic engine eliminates exactly
        where no step of the plan runs over, and its steps hold at once, more
        than 2^|support| entries, as many as the dense state, and runs the
        dense engine elsewhere.  The engines are stubbed."""
        params = tree_params(p)
        runs, expected = count_engine_runs(monkeypatch, stub=0.0), []
        for k in range(4):
            g = to_ising(random_instance(16, instance_rng(77, k)))
            for edge in sorted(g.couplings):
                plan, dist = whole_plan(g, edge, params)
                fits = max(plan.largest, plan.entries) <= 2 ** len(dist)
                expected.append("elimination" if fits else "statevector")
                edge_correlation(g, edge, params)
        assert runs == expected
        # 52 of 111 eliminate at p=2; at p=3 no plan there fits the dense state
        assert runs.count("elimination") == (52 if p == 2 else 0)

    def test_named_run_past_the_cap_raises_before_allocating(self, monkeypatch):
        """K5 at p=2: i and j keep 16 histories each and the three others 8, all
        coupled, so the first qubit summed out runs over a product of
        16^2 * 8^3 = 2^17 entries, and the factor it makes holds 2^13.  The
        5-qubit support fits a cap of 5; the plan's work does not fit 2^5, so
        the named engine raises before it builds an array: no run, and a peak
        far below the 128 KiB of that one factor."""
        k5 = CouplingGraph(n=5, couplings={
            (a, b): (1, -1, 2)[(a + b) % 3] for a in range(5) for b in range(a + 1, 5)
        }, constant=0)
        params = tree_params(2)
        plan, _ = whole_plan(k5, (0, 1), params)
        assert plan.largest == 2**17 and 2**13 <= plan.entries < plan.largest
        runs = count_engine_runs(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(SupportTooLarge, match=rf"^traced \(0, 1\) plans "
                                                      rf"{plan.largest} entries, cap is 2\^5$"):
                edge_correlation(k5, (0, 1), params, engine="traced", support_cap=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == [] and peak <= 64 * 1024
        # under the default cap the same plan runs
        assert edge_correlation(k5, (0, 1), params, engine="traced") == pytest.approx(
            edge_correlation(k5, (0, 1), params, engine="statevector"), abs=1e-12)

    @pytest.mark.parametrize("n, seed", [(300, 102), (16, 103)], ids=["table1-p2", "fig2"])
    def test_elimination_holds_at_most_its_plan(self, monkeypatch, n, seed):
        """Word 0 of table1-p2 and of fig2, p=2, every loopy lightcone the
        automatic engine eliminates.  The plan's entries count the factors
        steps made and have not yet consumed (16 bytes an entry); a step's one
        np.einsum buffers each of its operands in at most np.getbufsize() =
        8192 entries, 128 KiB, and its product is never built.  The rest is
        small: the per-step scope and label lists and Python objects, under
        16 KiB.  The coupling factors are cached per schedule, so a first run,
        which also counts the most operands a step takes, fills the cache."""
        graph = to_ising(random_instance(n, instance_rng(seed, 0)))
        params, adjacency, ran = tree_params(2), graph.adjacency_lists(), 0
        einsum, operands = np.einsum, []
        for edge in sorted(graph.couplings):
            plan, dist = whole_plan(graph, edge, params)
            if is_tree(adjacency, dist, 2) or max(plan.largest, plan.entries) > 2 ** len(dist):
                continue
            operands.clear()
            monkeypatch.setattr(np, "einsum", lambda *args: operands.append(len(args) // 2)
                                or einsum(*args))
            plan.value()
            monkeypatch.undo()
            tracemalloc.start()
            try:
                plan.value()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            buffers = np.getbufsize() * max(operands)
            assert peak <= 16 * (plan.entries + buffers) + 16 * 1024
            ran += 1
        assert ran >= 10

    def test_elimination_never_builds_a_step_product(self):
        """Three n=20 words (seed 77) at p=3, every plan whose biggest step
        runs over 2^20 to 2^22 entries: the elimination's peak stays under a
        quarter of that product at 16 bytes an entry, all of which a step that
        built its product would hold."""
        params, ran = tree_params(3), 0
        for k in range(3):
            graph = to_ising(random_instance(20, instance_rng(77, k)))
            for edge in sorted(graph.couplings):
                plan, _ = whole_plan(graph, edge, params)
                if not 2**20 <= plan.largest <= 2**22:
                    continue
                tracemalloc.start()
                try:
                    plan.value()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 16 * plan.largest / 4
                ran += 1
        assert ran == 8


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
        # The coupling (0, 1) and 21 leaves: at p=1 the elimination sums each
        # leaf into i or j by one matrix-vector product, while the dense engine
        # runs all 23 qubits in complex128 at 32 bytes per amplitude, 256 MiB;
        # the test takes about 1.5 s and 300 MiB peak RSS.
        couplings = {(0, 1): 2}
        for k in range(2, 23):
            couplings[(k % 2, k)] = (1, -1, 2, -2)[k % 4]
        g = CouplingGraph(n=23, couplings=couplings, constant=0)
        params = tree_params(1)
        traced = edge_correlation(g, (0, 1), params, engine="traced")
        dense = edge_correlation(g, (0, 1), params, engine="statevector")
        assert dense == pytest.approx(traced, abs=1e-12)

    def test_statevector_engine_stays_within_its_footprint(self):
        # Per amplitude: the complex128 state, a scratch buffer for half of it
        # and the int64 energies while simulating (16 + 8 + 8); then the state
        # and float64 probabilities, summed by quarters (16 + 8).  256 KiB covers
        # numpy's 8192-element iteration buffer, the O(m) phase tables and
        # Python objects.
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
        assert peak <= 32 * 2**k + 256 * 1024

    # Derandomized: random draws once made this test's wall time swing between
    # 1.5 and 38 s; a fixed seed fixes the examples it runs.  A complete
    # 9-qubit graph at p=3 now plans about 2^47 entries and raises at once.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 9), p=st.integers(1, 3))
    def test_elimination_order_does_not_change_the_value(self, data, n, p):
        """Relabelled qubits and reversed adjacency lists sum the qubits out in
        another order (ties go to the lower label).  A plan past 2^cap raises,
        and must on both labellings."""
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
            image = tuple(sorted((perm[a], perm[b])))
            try:
                corr = edge_correlation(g, (a, b), params, engine="traced",
                                        support_cap=SMALL_CAP)
            except SupportTooLarge:
                plan = whole_plan(g, (a, b), params)[0]
                assert max(plan.largest, plan.entries) > 2**SMALL_CAP
                with pytest.raises(SupportTooLarge):
                    edge_correlation(moved, image, params, engine="traced",
                                     support_cap=SMALL_CAP, _adjacency=reversed_adjacency)
                continue
            other = edge_correlation(moved, image, params, engine="traced",
                                     support_cap=SMALL_CAP, _adjacency=reversed_adjacency)
            assert other == pytest.approx(corr, abs=1e-12)

    def test_unknown_engine(self):
        g = to_ising(random_instance(10, 0))
        with pytest.raises(ValueError):
            edge_correlation(g, sorted(g.couplings)[0], tree_params(1), engine="x")


class TestAgainstFullStatevector:
    def test_every_coupling_matches_full_state(self):
        """Each engine's <Z_i Z_j> against the full-graph statevector, on every
        coupling and, up to 8 qubits, on every ordered pair of qubits."""
        for k in range(8):
            n = 5 + k
            g = to_ising(random_instance(n, instance_rng(45, k)))
            pairs = itertools.permutations(range(n), 2) if n <= 8 else ()
            others = [e for e in pairs if e not in g.couplings]
            for p in (1, 2, 3) if n <= 10 else (1, 2):
                params = tree_params(p)
                full = full_correlations(g, params)
                for edge in sorted(g.couplings):
                    for engine in ("auto", "traced", "statevector"):
                        corr = edge_correlation(g, edge, params, engine=engine)
                        assert corr == pytest.approx(full[edge], abs=1e-12)
                for edge in others:
                    expected = full[tuple(sorted(edge))]
                    for engine in ("auto", "statevector"):
                        corr = edge_correlation(g, edge, params, engine=engine)
                        assert corr == pytest.approx(expected, abs=1e-12)
                    try:
                        corr = edge_correlation(g, edge, params, engine="traced",
                                                support_cap=SMALL_CAP)
                    except SupportTooLarge:  # raised by the plan, before any array
                        plan = whole_plan(g, edge, params)[0]
                        assert max(plan.largest, plan.entries) > 2**SMALL_CAP
                        continue
                    assert corr == pytest.approx(expected, abs=1e-12)

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
            try:
                corr = edge_correlation(g, edge, params, engine="traced", support_cap=SMALL_CAP)
            except SupportTooLarge:  # raised by the plan, before any array
                plan = whole_plan(g, edge, params)[0]
                assert max(plan.largest, plan.entries) > 2**SMALL_CAP
                continue
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


def count_calls(monkeypatch, name):
    """List that records the coupling of every call of ``lightcone.name``, a
    function of (adjacency, edge, ...), from here on."""
    calls, function = [], getattr(lightcone, name)

    def counted(adjacency, edge, *args):
        calls.append(edge)
        return function(adjacency, edge, *args)

    monkeypatch.setattr(lightcone, name, counted)
    return calls


def count_engine_runs(monkeypatch, stub=None):
    """List that records the engine of every run from here on: "elimination"
    or "statevector"; with ``stub``, the engines are not run and return it."""
    runs, value, dense = [], history.Elimination.value, lightcone._corr_statevector

    def eliminated(plan):
        runs.append("elimination")
        return value(plan) if stub is None else stub

    def statevector(*args):
        runs.append("statevector")
        return dense(*args) if stub is None else stub

    monkeypatch.setattr(history.Elimination, "value", eliminated)
    monkeypatch.setattr(lightcone, "_corr_statevector", statevector)
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


#: The triangle 0-1-2 with the path 2-3-4-5 hanging off it.  Tree lightcones:
#: (2, 3), (3, 4) and (4, 5) at p=1, where 0-1 joins two boundary qubits; the
#: last two at p=2; (4, 5) at p=3.
TRIANGLE_WITH_TAIL = CouplingGraph(n=6, couplings={
    (0, 1): 1, (1, 2): -1, (0, 2): 2, (2, 3): 1, (3, 4): -1, (4, 5): 1,
}, constant=0)


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_ordered_pair_matches_memo_free(self, p):
        """One memo per graph serves couplings named in either order, and pairs
        that are no coupling as a memo-free call does."""
        for graph in (HAND_BUILT, PATH_WITH_TRIANGLE, TRIANGLE_WITH_TAIL):
            params, memo = tree_params(p), {}
            for edge in itertools.permutations(range(graph.n), 2):
                assert edge_correlation(graph, edge, params, _memo=memo) == pytest.approx(
                    edge_correlation(graph, edge, params), abs=1e-12)

    # At p=1 the closed form serves every coupling, so nothing is keyed or run.
    # At p=2 trees are read from the history table without a key, and the
    # loopy lightcones miss the memo three times: {(12, 13), (12, 14)},
    # (13, 14) and (11, 12), whose ball holds the triangle, each run once.
    @pytest.mark.parametrize("p, misses", [(1, 0), (2, 3)])
    def test_one_engine_run_per_lightcone_shape(self, monkeypatch, p, misses):
        engine_edges, public_edges = count_engine_runs(monkeypatch), []
        keyed = count_calls(monkeypatch, "_memo_key")
        public = lightcone.edge_correlation

        def counted_public(graph, edge, *args, **kwargs):
            public_edges.append(edge)
            return public(graph, edge, *args, **kwargs)

        monkeypatch.setattr(lightcone, "edge_correlation", counted_public)
        params = tree_params(p)
        total = lightcone_expectation(PATH_WITH_TRIANGLE, params).mean_adjacency_energy
        adjacency = PATH_WITH_TRIANGLE.adjacency_lists()
        trees = [e for e in PATH_WITH_TRIANGLE.couplings
                 if is_tree(adjacency, lightcone._distances(adjacency, e, p), p)]
        assert len(engine_edges) == misses
        assert not set(keyed) & set(trees)
        assert len(keyed) == (p > 1) * (len(PATH_WITH_TRIANGLE.couplings) - len(trees))
        assert public_edges == sorted(PATH_WITH_TRIANGLE.couplings)
        engine_edges.clear()
        assert total == pytest.approx(memo_free(PATH_WITH_TRIANGLE, params), abs=1e-12)
        assert len(engine_edges) == len(PATH_WITH_TRIANGLE.couplings)


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
        flipped: each coupling of the copy has its original's key, so its
        lightcone hits the memo (at p=1, where no engine runs, the key is all
        that is left to check)."""
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
        for a, b in HAND_BUILT.couplings:
            assert memo_key(union, (a + 10, b + 10), p) == memo_key(union, (a, b), p)
        check_memo(union, params)

    @pytest.mark.parametrize("original, renumbered, image", [
        # qubit 0 of a triangle has two bare ends, coupled by |J| = 1 and 2
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (0, 4): 2},
         {(10, 11): 1, (10, 12): 1, (11, 12): 1, (10, 13): 2, (10, 14): 1},
         (10, 11, 12, 14, 13)),
        # qubit 0 reaches a boundary qubit it shares with 1 and a bare end;
        # 1 has two more bare ends, so the search starts at 0
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 4): 1, (1, 5): 1},
         {(10, 11): 1, (10, 13): 1, (11, 13): 1, (10, 12): 1, (11, 14): 1, (11, 15): 1},
         (10, 11, 13, 12, 14, 15)),
    ], ids=["coupling-strength", "shared-boundary"])
    def test_renumbered_copy_costs_no_engine_run(self, original, renumbered, image):
        """A copy on qubits 10.. (qubit q becomes image[q]) that numbers two
        neighbours of qubit 0 the other way round: the search must order them
        by |J| and code, not by qubit, for each coupling of the copy to get
        its original's p=1 key, and so hit the memo.  lightcone_expectation
        keys nothing at p=1, so the keys are compared directly."""
        union = CouplingGraph(n=20, couplings={**original, **renumbered}, constant=0)
        for a, b in original:
            assert memo_key(union, (image[a], image[b]), 1) == memo_key(union, (a, b), 1)
        check_memo(union, tree_params(1))

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

    def test_table1_p2_rows_keep_their_bytes(self):
        rows, _ = run_table1(2)
        assert tuple(float.hex(row["mean_energy_adj"]) for row in rows) == TABLE1_P2_ROWS


#: float.hex of ``mean_energy_adj`` in the 20 rows of ``run_table1(1)`` at
#: default flags, and sha256 of the float.hex of every coupling's <Z_i Z_j> on
#: its word 0 (seed 101), one per line in sorted coupling order; both recorded
#: from the closed form evaluated coupling by coupling, before one pass over
#: the graph's arrays replaced it.
TABLE1_P1_ROWS = (
    "-0x1.43e228327c5a0p+9", "-0x1.449406279a0ccp+9", "-0x1.43da730369074p+9",
    "-0x1.44c5ba3889b84p+9", "-0x1.4398737fd8ecbp+9", "-0x1.43bf736a0dea5p+9",
    "-0x1.447f4d5cbabe1p+9", "-0x1.4359bbd31d450p+9", "-0x1.44224e3fcf865p+9",
    "-0x1.44fbb96b3ff21p+9", "-0x1.447c709b8bb47p+9", "-0x1.4217bc4f8d2a7p+9",
    "-0x1.43f295db951adp+9", "-0x1.4459bbd31d44dp+9", "-0x1.44aaba9f2e9b7p+9",
    "-0x1.44e3969313de9p+9", "-0x1.44ac28ffc6202p+9", "-0x1.43d904a2d1828p+9",
    "-0x1.43b4e179cb8e6p+9", "-0x1.449297c702881p+9",
)
#: float.hex of ``mean_energy_adj`` in the 10 rows of ``run_table1(2)`` at
#: default flags, recorded before both whole-graph passes returned one table
#: type; rows 3, 4, 5, 6 and 9 re-recorded when each elimination step became one
#: einsum, which moved each by one ulp (2.8e-14 or 5.7e-14).
TABLE1_P2_ROWS = (
    "-0x1.02705691ef284p+8", "-0x1.021a6e65f075bp+8", "-0x1.02509d4c10b2ep+8",
    "-0x1.00c68ee19f9c4p+8", "-0x1.019a053539d51p+8", "-0x1.ffde2394e0252p+7",
    "-0x1.0388da9b8b735p+8", "-0x1.0226424bf5bafp+8", "-0x1.ff4bab21bc505p+7",
    "-0x1.fe76fc0b08d81p+7",
)
TABLE1_P1_WORD0 = "3979c84589c0ff1b7151c1cd73b107692fd07aa1ac06a0f6712bcbd3bf5eafd7"


def has_triangle(graph):
    """Whether some coupling's endpoints share a neighbour, read from the
    couplings alone."""
    near = {}
    for i, j in graph.couplings:
        near.setdefault(i, set()).add(j)
        near.setdefault(j, set()).add(i)
    return any(near[i] & near[j] for i, j in graph.couplings)


class TestClosedForm:
    """At p=1, memoized_correlations is lightcone_expectation's closed form."""

    def test_table1_p1_rows_keep_their_bytes(self):
        rows, _ = run_table1(1)
        assert tuple(float.hex(row["mean_energy_adj"]) for row in rows) == TABLE1_P1_ROWS

    def test_table1_p1_word_keeps_its_bytes(self):
        graph = to_ising(random_instance(1000, instance_rng(101, 0)))
        assert has_triangle(graph)
        values = memoized_correlations(graph, tree_params(1)).values()
        text = "\n".join(map(float.hex, values))
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE1_P1_WORD0

    def test_a_shared_memo_serves_each_graph_and_params_its_own_values(self):
        """Calls on two graphs that share five couplings, (0, 1) among them,
        under two schedules at p = 1..3, take turns on one memo: each gets what
        a memo of its own gives, though the memo was last filled for another.
        At p >= 2 a loopy lightcone may read a shape the other graph memoized,
        equal to 1e-12."""
        for p in (1, 2, 3):
            fixed = tree_params(p)
            other = QaoaParams(tuple((0.3 + 0.1 * t, -0.7 + 0.2 * t) for t in range(p)))
            # each turn changes the graph or the schedule, not both
            cases = [(HAND_BUILT, fixed), (PATH_WITH_TRIANGLE, fixed),
                     (PATH_WITH_TRIANGLE, other), (HAND_BUILT, other)]
            own = [memoized_correlations(graph, params) for graph, params in cases]
            assert own[0][(0, 1)] != own[1][(0, 1)] and own[0][(0, 1)] != own[3][(0, 1)]
            shared, tolerance = {}, 0 if p == 1 else 1e-12
            for k in range(len(HAND_BUILT.couplings)):
                for (graph, params), values in zip(cases, own):
                    edge = sorted(graph.couplings)[k]
                    corr = edge_correlation(graph, edge, params, _memo=shared)
                    assert abs(corr - values[edge]) <= tolerance
                    # the memo-free form takes an edge as any pair, so the lookup does too
                    corr = edge_correlation(graph, list(edge), params, _memo=shared)
                    assert abs(corr - values[edge]) <= tolerance

    def test_only_couplings_past_the_cap_raise(self):
        """The triangle 0-1-2 fits a cap of 6; (2, 3) reaches the star at 3
        (11 qubits) and its leaves reach 9.  The message and the coupling it
        names are those of the coupling-by-coupling evaluation."""
        graph = CouplingGraph(n=11, couplings={
            (0, 1): 1, (0, 2): -1, (1, 2): 2, (2, 3): 1,
            **{(3, k): (-1) ** k for k in range(4, 11)},
        }, constant=0)
        params, memo = tree_params(1), {}
        for edge in ((0, 1), (0, 2), (1, 2)):
            corr = edge_correlation(graph, edge, params, support_cap=6, _memo=memo)
            free = edge_correlation(graph, edge, params, support_cap=6)
            assert corr == pytest.approx(free, abs=1e-12)
        with pytest.raises(SupportTooLarge, match=r"^support of \(3, 4\) has 9 qubits, cap is 6$"):
            edge_correlation(graph, (3, 4), params, support_cap=6, _memo=memo)
        with pytest.raises(SupportTooLarge, match=r"^support of \(2, 3\) has 11 qubits, cap is 6$"):
            lightcone_expectation(graph, params, support_cap=6)

    def test_p1_sum_builds_no_adjacency_lists(self):
        graph = to_ising(random_instance(1000, instance_rng(101, 0)))
        assert has_triangle(graph)
        lightcone_expectation(graph, tree_params(1))
        assert "_adjacency" not in vars(graph)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 9))
    def test_matches_full_state_on_random_loopy_graphs(self, data, n):
        """n couplings on n qubits always close a loop; |J| up to 3, as a
        graph read from JSON may carry."""
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True))
        couplings = {e: data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for e in chosen}
        angle = st.floats(-np.pi, np.pi, allow_nan=False)
        params = QaoaParams(((data.draw(angle), data.draw(angle)),))
        graph = CouplingGraph(n=n, couplings=couplings, constant=0)
        full = full_correlations(graph, params)
        for edge, corr in memoized_correlations(graph, params).items():
            assert corr == pytest.approx(full[edge], abs=1e-12)

    # With PHASE_SCALE = 1/2 a coupling's cosine is cos(gamma J): about 0 at
    # gamma = pi/2 for |J| = 1 and at gamma = pi/4 for |J| = 2.  sin 4 beta
    # is about 0 at beta = pi/4.
    @pytest.mark.parametrize("gamma", [np.pi / 2, np.pi / 4], ids=["pi/2", "pi/4"])
    @pytest.mark.parametrize("graph", [HAND_BUILT, PATH_WITH_TRIANGLE],
                             ids=["hand-built", "path-with-triangle"])
    def test_matches_full_state_where_a_cosine_vanishes(self, graph, gamma):
        params = QaoaParams(((gamma, np.pi / 4),))
        full = full_correlations(graph, params)
        for edge, corr in memoized_correlations(graph, params).items():
            assert corr == pytest.approx(full[edge], abs=1e-12)

    def test_table1_p1_word_matches_traced_engine(self):
        """Every coupling of word 0 of table1-p1 (seed 101, n=1000)."""
        graph = to_ising(random_instance(1000, instance_rng(101, 0)))
        params = tree_params(1)
        for edge, corr in memoized_correlations(graph, params).items():
            traced = edge_correlation(graph, edge, params, engine="traced")
            assert corr == pytest.approx(traced, abs=1e-12)

    def test_lightcone_expectation_keys_and_runs_nothing(self, monkeypatch):
        """At p=1 the sum needs neither a memo key nor an engine run."""
        keys, memo_key = [], lightcone._memo_key

        def counted(adjacency, edge, *args):
            keys.append(edge)
            return memo_key(adjacency, edge, *args)

        monkeypatch.setattr(lightcone, "_memo_key", counted)
        runs = count_engine_runs(monkeypatch)
        graph = to_ising(random_instance(200, instance_rng(48, 0)))
        params = tree_params(1)
        total = lightcone_expectation(graph, params).mean_adjacency_energy
        assert keys == [] and runs == []
        assert total == pytest.approx(memo_free(graph, params), abs=1e-12)
