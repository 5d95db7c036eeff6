"""Coupling construction, energy identities, gauge handling."""
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintshop import (
    Coloring,
    CouplingGraph,
    NonUnitCoupling,
    NotATree,
    apply_gauge,
    circuit_from_json,
    coloring_to_spins,
    coupling_stats,
    graph_from_json,
    graph_to_json,
    instance_rng,
    random_instance,
    spins_to_coloring,
    to_ising,
    tree_gauge,
    validate,
)
from paintshop.ising import adjacency_energy, hamiltonian_energy


def naive_changes(seq, fc):
    seen = {}
    colors = []
    for car in seq:
        k = seen.get(car, 0)
        seen[car] = k + 1
        colors.append(fc[car] ^ k)
    return sum(a != b for a, b in zip(colors, colors[1:]))


def naive_couplings(word):
    """Walk the word: each adjacency of two cars adds +1 to their pair when
    their occurrences differ, -1 when they agree; zero pairs drop out."""
    seen, occurrence = set(), []
    for car in word:
        occurrence.append(car in seen)
        seen.add(car)
    merged = {}
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a != b:
            key = (min(a, b), max(a, b))
            merged[key] = merged.get(key, 0) + (1 if occurrence[k] != occurrence[k + 1] else -1)
    return {key: v for key, v in merged.items() if v}


def words(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations([i for i in range(n) for _ in range(2)])
    )


class TestMerging:
    def test_alternating_pair_merges_to_minus_one(self):
        g = to_ising(validate([0, 1, 0, 1]))
        assert g.couplings == {(0, 1): -1}
        assert g.constant == 0

    def test_interleaved_triple(self):
        g = to_ising(validate([0, 1, 2, 0, 1, 2]))
        assert g.couplings == {(0, 1): -2, (0, 2): 1, (1, 2): -2}
        assert g.constant == 0

    def test_self_adjacencies_become_constants(self):
        g = to_ising(validate([0, 0, 1, 1]))
        assert g.couplings == {(0, 1): 1}
        assert g.constant == 2

    def test_cancelled_pairs_are_dropped_but_counted(self):
        inst = validate([0, 1, 0, 2, 1, 2])
        g = to_ising(inst)
        assert g.couplings == {(0, 2): 1}
        stats = coupling_stats([inst])
        assert stats.zero_merged == 2
        assert stats.histogram.get(0) == 2

    @given(words())
    def test_values_are_small_integers_and_degree_at_most_four(self, word):
        g = to_ising(validate(word))
        assert set(g.couplings.values()) <= {-2, -1, 1, 2}
        assert g.degrees().max(initial=0) <= 4
        for (a, b) in g.couplings:
            assert a < b


    @given(words(max_n=30))
    def test_couplings_are_plain_ints_in_sorted_order(self, word):
        couplings = to_ising(validate(word)).couplings
        assert list(couplings) == sorted(couplings)
        assert all(type(q) is int for key in couplings for q in key)
        assert all(type(v) is int for v in couplings.values())
        assert couplings == naive_couplings(word)


class TestEnergyIdentity:
    @given(words())
    @settings(max_examples=40)
    def test_cost_equals_shifted_adjacency_energy(self, word):
        inst = validate(word)
        g = to_ising(inst)
        for fc in itertools.product((0, 1), repeat=inst.n):
            coloring = Coloring(first_color=np.array(fc, dtype=np.int8))
            spins = coloring_to_spins(coloring)
            e = adjacency_energy(g, spins)
            assert naive_changes(word, fc) == (e + 2 * inst.n - 1) / 2
            assert hamiltonian_energy(g, spins) == e / 2

    def test_spin_color_round_trip(self):
        coloring = Coloring(first_color=np.array([0, 1, 1, 0], dtype=np.int8))
        spins = coloring_to_spins(coloring)
        assert spins.tolist() == [1, -1, -1, 1]
        back = spins_to_coloring(spins)
        assert back.first_color.tolist() == [0, 1, 1, 0]


class TestCouplingStats:
    def test_large_instance_fractions(self):
        instances = [random_instance(20_000, instance_rng(9, k)) for k in range(5)]
        stats = coupling_stats(instances)
        assert abs(stats.frac_minus_one - 2 / 3) < 0.03
        assert abs(stats.frac_plus_one - 1 / 3) < 0.03
        assert stats.frac_mag_two < 0.01
        assert stats.mean_degree > 3.9
        assert stats.pair_count > 0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            coupling_stats([])


class TestTreeGauge:
    def test_path_example(self):
        g = CouplingGraph(n=3, couplings={(0, 1): -1, (1, 2): 1}, constant=0)
        assert tree_gauge(g) == frozenset({0})

    def test_tie_prefers_set_without_smallest_qubit(self):
        g = CouplingGraph(n=2, couplings={(0, 1): -1}, constant=0)
        assert tree_gauge(g) == frozenset({1})

    def test_apply_gauge_makes_all_couplings_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 14))
            parent = [int(rng.integers(0, k)) for k in range(1, n)]
            couplings = {}
            for child, par in enumerate(parent, start=1):
                a, b = min(par, child), max(par, child)
                couplings[(a, b)] = int(rng.choice([-1, 1]))
            g = CouplingGraph(n=n, couplings=couplings, constant=0)
            fixed = apply_gauge(g, tree_gauge(g))
            assert set(fixed.couplings.values()) <= {1}
            assert fixed.couplings.keys() == couplings.keys()

    def test_gauge_preserves_energy_spectrum(self):
        g = CouplingGraph(
            n=4, couplings={(0, 1): -1, (1, 2): 1, (1, 3): -1}, constant=0
        )
        flips = tree_gauge(g)
        fixed = apply_gauge(g, flips)
        for bits in itertools.product((1, -1), repeat=4):
            spins = np.array(bits)
            flipped = spins.copy()
            for q in flips:
                flipped[q] *= -1
            assert adjacency_energy(g, spins) == adjacency_energy(fixed, flipped)

    def test_rejects_cycles(self):
        cyc = CouplingGraph(
            n=3, couplings={(0, 1): 1, (1, 2): 1, (0, 2): 1}, constant=0
        )
        with pytest.raises(NotATree):
            tree_gauge(cyc)
        frustrated = CouplingGraph(
            n=3, couplings={(0, 1): 1, (1, 2): 1, (0, 2): -1}, constant=0
        )
        with pytest.raises(NotATree):
            tree_gauge(frustrated)

    def test_one_adjacency_build_for_a_forest(self, monkeypatch):
        calls = []
        original = CouplingGraph.adjacency_lists

        def counted(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(CouplingGraph, "adjacency_lists", counted)
        # Three components: 0-1, 2-3-4 and the isolated qubit 5.
        g = CouplingGraph(
            n=6, couplings={(0, 1): -1, (2, 3): 1, (3, 4): -1}, constant=0
        )
        flips = tree_gauge(g)
        assert len(calls) == 1
        assert set(apply_gauge(g, flips).couplings.values()) == {1}

    def test_rejects_non_unit_couplings(self):
        g = CouplingGraph(n=2, couplings={(0, 1): 2}, constant=0)
        with pytest.raises(NonUnitCoupling):
            tree_gauge(g)


@pytest.mark.parametrize("couplings, named", [
    ({(1, 0): 1}, "(1, 0)"),
    ({(0, 1): 1, (1, 0): 1}, "(1, 0)"),
    ({(1, 1): 1}, "(1, 1)"),
    ({(0, 3): 1}, "(0, 3)"),
    ({(-1, 1): 1}, "(-1, 1)"),
    ({(0, 1): 1.5}, "(0, 1): 1.5"),
    ({(0, 1): True}, "(0, 1): True"),
], ids=["reversed", "both-orders", "self-pair", "beyond-n", "negative", "float-J", "bool-J"])
def test_construction_rejects_every_other_coupling_form(couplings, named):
    with pytest.raises(ValueError, match=re.escape(f"coupling {named}")):
        CouplingGraph(n=3, couplings=couplings, constant=0)


class TestGraphJson:
    def test_round_trip(self):
        g = to_ising(validate([0, 1, 2, 0, 1, 2]))
        obj = graph_to_json(g)
        assert obj["couplings"] == [[0, 1, -2], [0, 2, 1], [1, 2, -2]]
        back = graph_from_json(obj)
        assert back.n == g.n
        assert back.couplings == g.couplings
        assert back.constant == g.constant

    def test_reversed_keys_are_rejected(self):
        # Neither a graph built in memory nor one read from JSON gets past the
        # constructor's check, so graph_to_json never sees a reversed pair.
        with pytest.raises(ValueError, match=r"coupling \(1, 0\)"):
            CouplingGraph(n=3, couplings={(1, 0): 1, (2, 1): -2}, constant=1)
        with pytest.raises(ValueError, match=r"coupling \(1, 0\)"):
            graph_from_json({"n": 3, "couplings": [[1, 0, 1]], "constant": 1})

    @pytest.mark.parametrize(
        "change",
        [
            {"couplings": [[0, 1, 1.7]]},
            {"couplings": [[0, 1, "2"]]},
            {"couplings": [[0, 1, True]]},
            {"n": True},
            {"n": 3.0},
            {"constant": "1"},
            {"couplings": [[0, 1, 1], [0, 1, -1]]},
            {"couplings": [[1, 0, 1]]},
            {"couplings": [[1, 1, 1]]},
            {"couplings": [[0, 3, 1]]},
            {"couplings": [[-1, 1, 1]]},
            {"couplings": [[0, 1]]},
        ],
        ids=["float-J", "str-J", "bool-J", "bool-n", "float-n", "str-constant",
             "repeated-pair", "reversed-pair", "self-pair", "id-beyond-n", "negative-id",
             "short-entry"],
    )
    def test_rejects_what_it_would_coerce(self, change):
        obj = {"n": 3, "couplings": [[0, 1, -2], [1, 2, 1]], "constant": 1, **change}
        with pytest.raises(ValueError):
            graph_from_json(obj)


@pytest.mark.parametrize("reader, obj", [
    (graph_from_json, {"n": 3, "constant": 1}),
    (graph_from_json, {"n": 3, "couplings": [[0, 1, 1]]}),
    (circuit_from_json, {"n": 2}),
    (graph_from_json, {"n": 3, "couplings": None, "constant": 1}),
    (circuit_from_json, {"n": 2, "gates": None}),
    (graph_from_json, [3, [[0, 1, 1]], 1]),
    (circuit_from_json, [2, []]),
    (circuit_from_json, {"n": 2, "gates": [["rz", 0, 0.1]]}),
    (circuit_from_json, {"n": 2, "gates": [{"kind": ["rz"], "qubit": 0, "theta": 0.1}]}),
], ids=["no-couplings", "no-constant", "no-gates", "null-couplings", "null-gates",
        "graph-list", "circuit-list", "list-gate", "list-kind"])
def test_json_readers_reject_malformed_records_with_value_error(reader, obj):
    with pytest.raises(ValueError):
        reader(obj)
