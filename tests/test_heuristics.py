"""Sequential heuristics and the greedy ground-state subsystem."""
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintshop import (
    brute_force_opt,
    color_changes,
    coloring_to_spins,
    easy_instance,
    greedy,
    greedy_subsystem,
    hard_instance,
    instance_rng,
    random_instance,
    recursive_greedy,
    red_first,
    validate,
)
from paintshop.heuristics import min_tree, nearest_smaller
from paintshop.ising import adjacency_energy


def naive_greedy(word, n, initial=0):
    """Paint left to right with the running color, flip only when forced."""
    fc = [-1] * n
    current = initial
    for car in word:
        if fc[car] < 0:
            fc[car] = current
        else:
            current = 1 - fc[car]
    return fc


def naive_changes(word, fc):
    """Paint the word from the first colors in ``fc`` and count the changes."""
    seen, paint = set(), []
    for car in word:
        paint.append(1 - fc[car] if car in seen else fc[car])
        seen.add(car)
    return sum(a != b for a, b in zip(paint, paint[1:]))


def naive_recursive_greedy(word):
    """Remove the car at the last position, solve the rest, re-insert the car
    and keep its cheaper first color, ties toward 0; a lone car takes 0."""
    car = word[-1]
    rest = [c for c in word if c != car]
    fc = naive_recursive_greedy(rest) if rest else {}
    costs = []
    for color in (0, 1):
        fc[car] = color
        costs.append(naive_changes(word, fc))
    fc[car] = int(costs[1] < costs[0])
    return fc


def naive_greedy_subsystem(inst):
    """The greedy subsystem one position at a time, as its docstring states it."""
    seq, occ = inst.sequence.tolist(), inst.occurrence.tolist()
    couplings = {}
    for k in range(1, 2 * inst.n):
        if occ[k] == 0:
            i, j = seq[k], seq[k - 1]
            couplings[(min(i, j), max(i, j))] = -1 if occ[k - 1] == 0 else 1
    return couplings


def words(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations([i for i in range(n) for _ in range(2)])
    )


class TestGreedy:
    @given(words())
    def test_matches_naive_walk(self, word):
        inst = validate(word)
        assert greedy(inst).first_color.tolist() == naive_greedy(word, inst.n)
        assert greedy(inst).flip().first_color.tolist() == naive_greedy(
            word, inst.n, initial=1
        )

    def test_takes_no_initial_color(self):
        # the mirror coloring is Coloring.flip, not a second walk
        with pytest.raises(TypeError):
            greedy(validate([0, 0]), 1)

    @given(words())
    def test_never_below_optimum(self, word):
        inst = validate(word)
        assert color_changes(inst, greedy(inst)) >= brute_force_opt(inst).opt_changes

    def test_mean_cost_per_car_near_half(self):
        total = 0
        count, n = 20, 2000
        for k in range(count):
            inst = random_instance(n, instance_rng(21, k))
            total += color_changes(inst, greedy(inst)) / n
        assert abs(total / count - 0.5) < 0.03


class TestRedFirst:
    @given(words())
    def test_all_first_occurrences_share_a_color(self, word):
        inst = validate(word)
        coloring = red_first(inst)
        assert coloring.first_color.tolist() == [0] * inst.n

    def test_mean_cost_per_car_near_two_thirds(self):
        total = 0
        count, n = 20, 2000
        for k in range(count):
            inst = random_instance(n, instance_rng(22, k))
            total += color_changes(inst, red_first(inst)) / n
        assert abs(total / count - 2 / 3) < 0.03


def stack_nearest_smaller(values, right=False):
    """The nearest strictly smaller value on one side of each position, by a stack walk."""
    out, stack = [len(values)] * len(values), []
    order = range(len(values) - 1, -1, -1) if right else range(len(values))
    for i in order:
        while stack and values[stack[-1]] >= values[i]:
            stack.pop()
        if stack:
            out[i] = stack[-1]
        stack.append(i)
    return out


class TestNearestSmaller:
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=70).flatmap(
            lambda values: st.tuples(
                st.just(values),
                st.lists(st.integers(0, len(values) - 1), max_size=2 * len(values)),
            )
        ),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_matches_stack_walk(self, values_at, dtype):
        # Lengths up to 70 give every level an odd tail somewhere; the small
        # value range gives repeats, which must not count as smaller.
        values, at = values_at
        tree = min_tree(np.array(values, dtype=dtype))
        got = nearest_smaller(tree, np.array(at, dtype=dtype))
        for side, right in zip(got, (False, True)):
            assert side.dtype == dtype
            expected = stack_nearest_smaller(values, right)
            assert side.tolist() == [expected[i] for i in at]


def assert_matches_naive(inst):
    fc = naive_recursive_greedy(inst.sequence.tolist())
    got = recursive_greedy(inst).first_color
    assert got.dtype == np.int8
    assert got.tolist() == [fc[car] for car in range(inst.n)]


class TestRecursiveGreedy:
    def test_matches_naive_on_every_word_up_to_four_cars(self):
        for n in range(1, 5):
            for word in set(itertools.permutations([i for i in range(n) for _ in range(2)])):
                assert_matches_naive(validate(word))

    @given(words())
    def test_matches_naive_on_random_words(self, word):
        assert_matches_naive(validate(word))

    def test_matches_naive_on_ladders_and_pairs(self):
        for n in range(1, 31):
            assert_matches_naive(hard_instance(n))
            assert_matches_naive(easy_instance(n))

    def test_matches_naive_on_seeded_words_up_to_300_cars(self):
        for k, n in enumerate(range(10, 301, 10)):
            assert_matches_naive(random_instance(n, instance_rng(25, k)))

    @given(words())
    @settings(max_examples=60)
    def test_never_below_optimum(self, word):
        inst = validate(word)
        assert (
            color_changes(inst, recursive_greedy(inst))
            >= brute_force_opt(inst).opt_changes
        )

    def test_solves_nested_ladder_exactly(self):
        # the peel-and-reinsert order handles (0,1,...,n-1,n-1,...,1,0) optimally
        for n in (2, 5, 9, 16):
            inst = hard_instance(n)
            assert color_changes(inst, recursive_greedy(inst)) == 1

    def test_mean_cost_per_car_near_two_fifths(self):
        total = 0
        count, n = 20, 2000
        for k in range(count):
            inst = random_instance(n, instance_rng(23, k))
            total += color_changes(inst, recursive_greedy(inst)) / n
        assert abs(total / count - 0.4) < 0.03

    def test_beats_greedy_on_average(self):
        count, n = 30, 500
        rec = grd = 0
        for k in range(count):
            inst = random_instance(n, instance_rng(24, k))
            rec += color_changes(inst, recursive_greedy(inst))
            grd += color_changes(inst, greedy(inst))
        assert rec < grd


class TestGreedySubsystem:
    @given(words(max_n=10))
    @settings(max_examples=60)
    def test_acyclic_unit_couplings_one_less_than_cars(self, word):
        inst = validate(word)
        sub = greedy_subsystem(inst)
        assert len(sub.couplings) == inst.n - 1
        assert set(sub.couplings.values()) <= {-1, 1}
        # acyclicity via union-find: each coupling joins two components
        parent = list(range(inst.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b) in sub.couplings:
            ra, rb = find(a), find(b)
            assert ra != rb
            parent[ra] = rb

    @given(words(max_n=10))
    @settings(max_examples=60)
    def test_greedy_reaches_subsystem_ground_energy(self, word):
        # an acyclic +-1 system is frustration free: minimum is -(n-1)
        inst = validate(word)
        sub = greedy_subsystem(inst)
        spins = coloring_to_spins(greedy(inst))
        assert adjacency_energy(sub, spins) == -(inst.n - 1)

    @pytest.mark.parametrize("inst", [
        *(random_instance(n, instance_rng(26, n)) for n in (1, 2, 5, 50, 1000)),
        hard_instance(40),
        easy_instance(40),
    ], ids=["n1", "n2", "n5", "n50", "n1000", "ladder", "pairs"])
    def test_matches_naive_couplings_in_sorted_order(self, inst):
        got = list(greedy_subsystem(inst).couplings.items())
        assert got == sorted(naive_greedy_subsystem(inst).items())
        assert all(type(v) is int for _, v in got)


#: sha256 of ``first_color.tobytes()`` on random_instance(100_000, instance_rng(104, k)),
#: recorded from the element-by-element walks the typed-buffer loops replaced.
DIGESTS_100K = {
    (0, "greedy"): "962233c4b75e5ebc589878244d1a9ef7f4cabebc79e2e4417eb6fa7ff29cb62b",
    (0, "recursive_greedy"): "2214943612ccee311982cb624e1c400fd78852c07a40a0c7edb06a54db228610",
    (1, "greedy"): "bde5b2df66cf3ee95c6a8454002e70c920f7e335a2d8faf79226fbaeb504ea06",
    (1, "recursive_greedy"): "8f47b0d79a10c06726cae9263433592de0022972617b36c14014fa9b45f26b11",
}


#: sha256 of ``recursive_greedy(inst).first_color.tobytes()`` on the structured n=100k
#: words, which have the longest nearest-smaller chains; recorded from the dancing-links
#: peel the nearest-smaller search replaced.  The twice-in-order word and the nested
#: ladder both take first color 0 for every car, one color change each.
STRUCTURED_DIGESTS_100K = {
    "twice-in-order": "9192c25b734fcbadbe32dadc28089c60db0e39f90cc20ce2e5733f57261acc0c",
    "ladder": "9192c25b734fcbadbe32dadc28089c60db0e39f90cc20ce2e5733f57261acc0c",
    "pairs": "b727cad0bd1f37c227110bdedb465d1fa50aaaaf0655037dd4df1340f4e991fc",
}


@pytest.fixture(scope="module")
def words_100k():
    return [random_instance(100_000, instance_rng(104, k)) for k in (0, 1)]


@pytest.fixture(scope="module")
def structured_100k():
    n = 100_000
    return {
        "twice-in-order": validate(list(range(n)) * 2),
        "ladder": hard_instance(n),
        "pairs": easy_instance(n),
    }


def traced_peak(solver, inst) -> int:
    tracemalloc.start()
    try:
        solver(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeWords:
    @pytest.mark.parametrize("k, name", sorted(DIGESTS_100K))
    def test_colorings_match_recorded_digests(self, words_100k, k, name):
        fc = {"greedy": greedy, "recursive_greedy": recursive_greedy}[name](words_100k[k]).first_color
        assert fc.dtype == np.int8
        assert hashlib.sha256(fc.tobytes()).hexdigest() == DIGESTS_100K[k, name]

    @pytest.mark.parametrize("name", sorted(STRUCTURED_DIGESTS_100K))
    def test_structured_colorings_match_recorded_digests(self, structured_100k, name):
        fc = recursive_greedy(structured_100k[name]).first_color
        assert hashlib.sha256(fc.tobytes()).hexdigest() == STRUCTURED_DIGESTS_100K[name]

    def test_greedy_matches_naive_walk(self, words_100k):
        inst = words_100k[0]
        assert greedy(inst).first_color.tolist() == naive_greedy(inst.sequence.tolist(), inst.n)

    def test_peak_memory_is_the_typed_buffers(self, words_100k, structured_100k):
        # recursive_greedy holds int32 arrays: the positions labeled with their
        # car's rank as the min-tree's level 0, 8n bytes, and the levels above,
        # about 8n more; the first and second positions by rank, 8n; the two
        # neighbour arrays of the first positions, 8n; then 2n+1 color bytes and
        # the n-byte result.  Each search adds its queries' state (query number,
        # block, value and answer, 16n) and one level's hits with their int64
        # indices (up to 17n).  That stays within 1.25 (55n + 17) bytes, 6.6 MiB
        # at n=100k: about 59n on random words, and up to 66n on the structured
        # words, where many queries resolve on one level.
        # greedy reads the word in place and keeps n color bytes.
        for inst in (words_100k[0], *structured_100k.values()):
            n = inst.n
            assert traced_peak(recursive_greedy, inst) <= 1.25 * (55 * n + 17)
            assert traced_peak(greedy, inst) <= 2 * n
