"""Instance handling, cost function, exact oracle, serialization.

Reference results come from independent naive implementations kept in this
file (itertools enumeration, position-by-position walks), never from the
package functions under test.
"""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintshop import (
    BadIdentifier,
    BadRecord,
    Coloring,
    Statevector,
    TooLarge,
    WrongMultiplicity,
    brute_force_opt,
    circuit_from_json,
    color_changes,
    easy_instance,
    expand,
    graph_from_json,
    hard_instance,
    instance_rng,
    random_guess_expectation,
    random_instance,
    read_jsonl,
    state_fidelity,
    validate,
    write_jsonl,
)
from paintshop.core import from_labels


def naive_changes(seq, fc):
    seen = {}
    colors = []
    for car in seq:
        k = seen.get(car, 0)
        seen[car] = k + 1
        colors.append(fc[car] ^ k)
    return sum(a != b for a, b in zip(colors, colors[1:]))


def naive_opt(seq, n):
    best, count = None, 0
    for fc in itertools.product((0, 1), repeat=n):
        dc = naive_changes(seq, fc)
        if best is None or dc < best:
            best, count = dc, 1
        elif dc == best:
            count += 1
    return best, count


def words(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations([i for i in range(n) for _ in range(2)])
    )


class TestValidate:
    def test_accepts_well_formed_word(self):
        inst = validate([2, 0, 1, 2, 0, 1])
        assert inst.n == 3
        assert inst.sequence.tolist() == [2, 0, 1, 2, 0, 1]
        assert inst.occurrence.tolist() == [0, 0, 0, 1, 1, 1]

    def test_rejects_wrong_multiplicity(self):
        with pytest.raises(WrongMultiplicity):
            validate([0, 0, 1])
        with pytest.raises(WrongMultiplicity):
            validate([0, 0, 0, 0])
        with pytest.raises(WrongMultiplicity):
            validate([])

    def test_rejects_sparse_or_negative_identifiers(self):
        with pytest.raises(BadIdentifier):
            validate([0, 0, 2, 2])
        with pytest.raises(BadIdentifier):
            validate([-1, 0, 0, -1])

    def test_rejects_non_integer_entries_without_coercion(self):
        for word in ([0.5, 0.5], [0, 1, 1, 0.9], [0.0, 0.0], ["0", "0"],
                     [True, True], [0, True, 0, True]):
            with pytest.raises(BadIdentifier):
                validate(word)

    def test_rejects_identifiers_beyond_64_bits(self):
        for word in ([10**23, 10**23], [0, 2**63, 0, 2**63], [-(2**64), -(2**64)]):
            with pytest.raises(BadIdentifier, match="exceeds 64 bits"):
                validate(word)

    def test_accepts_numpy_integers(self):
        inst = validate(np.array([1, 0, 1, 0], dtype=np.int32))
        assert inst.sequence.dtype == np.int64
        assert inst.sequence.tolist() == [1, 0, 1, 0]

    def test_multiplicity_reported_before_identifier_range(self):
        with pytest.raises(WrongMultiplicity):
            validate([7, 7, 7, 7])

    def test_occurrence_marks_second_appearances(self):
        inst = validate([3, 1, 3, 0, 2, 0, 1, 2])
        assert inst.occurrence.tolist() == [0, 0, 1, 0, 0, 1, 1, 1]

    def test_from_labels_renumbers_by_first_appearance(self):
        inst, mapping = from_labels(["b", "a", "b", "a"])
        assert mapping == {"b": 0, "a": 1}
        assert inst.sequence.tolist() == [0, 1, 0, 1]


class TestCost:
    @given(words(), st.data())
    def test_expand_and_cost_match_naive_walk(self, word, data):
        inst = validate(word)
        fc = data.draw(
            st.lists(st.integers(0, 1), min_size=inst.n, max_size=inst.n)
        )
        coloring = Coloring(first_color=np.array(fc, dtype=np.int8))
        colors = expand(inst, coloring)
        seen = {}
        for pos, car in enumerate(word):
            k = seen.get(car, 0)
            seen[car] = k + 1
            assert colors[pos] == fc[car] ^ k
        assert color_changes(inst, coloring) == naive_changes(word, fc)

    @given(words(), st.data())
    def test_global_flip_leaves_cost_unchanged(self, word, data):
        inst = validate(word)
        fc = data.draw(
            st.lists(st.integers(0, 1), min_size=inst.n, max_size=inst.n)
        )
        coloring = Coloring(first_color=np.array(fc, dtype=np.int8))
        assert color_changes(inst, coloring) == color_changes(
            inst, coloring.flip()
        )

    @given(words())
    def test_cost_bounds(self, word):
        inst = validate(word)
        for fc in itertools.product((0, 1), repeat=inst.n):
            dc = naive_changes(word, fc)
            assert 1 <= dc <= 2 * inst.n - 1


class TestRandomGuess:
    @given(words())
    @settings(max_examples=40)
    def test_equals_exhaustive_mean(self, word):
        inst = validate(word)
        total = sum(
            naive_changes(word, fc)
            for fc in itertools.product((0, 1), repeat=inst.n)
        )
        assert random_guess_expectation(inst) == total / 2**inst.n

    def test_self_adjacency_case(self):
        # one self-adjacency (forced change) plus four half-chance adjacencies
        assert random_guess_expectation(validate([0, 0, 1, 2, 1, 2])) == 3.0


class TestBruteForce:
    @given(words())
    @settings(max_examples=40)
    def test_matches_itertools_enumeration(self, word):
        inst = validate(word)
        best, count = naive_opt(word, inst.n)
        res = brute_force_opt(inst)
        assert res.opt_changes == best
        assert res.degeneracy == count
        assert color_changes(inst, res.witness) == best

    def test_rejects_oversized_instance(self):
        with pytest.raises(TooLarge):
            brute_force_opt(random_instance(25, 0), cap_cars=24)

    def test_rejects_more_than_32_cars_whatever_the_cap(self):
        # The pinned car reads bit 31 of a uint32 index: a 33rd car would share it.
        with pytest.raises(TooLarge, match="capped at 32 cars, got 33"):
            brute_force_opt(random_instance(33, 0), cap_cars=33)

    def test_cap_is_adjustable(self):
        res = brute_force_opt(random_instance(10, 3), cap_cars=10)
        assert res.opt_changes >= 1


def test_random_words_beyond_2_to_the_30_cars_are_refused():
    with pytest.raises(TooLarge, match=f"capped at {2**30} cars, got {2**30 + 1}"):
        random_instance(2**30 + 1, 0)


@pytest.mark.parametrize("call, error, text", [
    (lambda: random_instance(0, 0), WrongMultiplicity, "n must be >= 1"),
    (lambda: hard_instance(0), WrongMultiplicity, "n must be >= 1"),
    (lambda: easy_instance(-1), WrongMultiplicity, "n must be >= 1"),
    (lambda: graph_from_json({"n": -1, "constant": 0, "couplings": []}), ValueError,
     "graph n must be >= 0, got -1"),
    (lambda: circuit_from_json({"n": -1, "gates": []}), ValueError,
     "circuit n must be a non-negative int, got -1"),
    (lambda: state_fidelity(Statevector((0,), np.ones(2)), Statevector((1,), np.ones(2))),
     ValueError, "states are over different qubits"),
], ids=["random-n0", "hard-n0", "easy-n-1", "graph-n-1", "circuit-n-1", "fidelity-qubits"])
def test_out_of_range_inputs_raise(call, error, text):
    with pytest.raises(error, match=text):
        call()


class TestNamedInstances:
    def test_hard_instance_is_nested_ladder(self):
        inst = hard_instance(5)
        assert inst.sequence.tolist() == [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
        res = brute_force_opt(inst)
        assert res.opt_changes == 1
        assert res.degeneracy == 2  # the two global recolorings only

    def test_easy_instance_optimum_is_n(self):
        for n in (1, 2, 5, 8):
            assert brute_force_opt(easy_instance(n)).opt_changes == n

    def test_easy_instance_worst_case_within_twice_optimum(self):
        n = 6
        word = easy_instance(n).sequence.tolist()
        worst = max(
            naive_changes(word, fc)
            for fc in itertools.product((0, 1), repeat=n)
        )
        assert worst == 2 * n - 1  # <= 2n, so alpha=2 is always met


class TestRandomInstance:
    def test_word_is_double_permutation(self):
        inst = random_instance(50, instance_rng(1, 0))
        values, counts = np.unique(inst.sequence, return_counts=True)
        assert values.tolist() == list(range(50))
        assert set(counts.tolist()) == {2}

    def test_seed_stream_is_reproducible(self):
        a = random_instance(30, instance_rng(5, 7))
        b = random_instance(30, instance_rng(5, 7))
        c = random_instance(30, instance_rng(5, 8))
        assert a.sequence.tolist() == b.sequence.tolist()
        assert a.sequence.tolist() != c.sequence.tolist()


class TestJsonl:
    def test_round_trip_preserves_bytes(self, tmp_path):
        instances = [random_instance(12, instance_rng(2, k)) for k in range(4)]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_jsonl(first, instances)
        write_jsonl(second, read_jsonl(first))
        assert first.read_bytes() == second.read_bytes()

    def test_lines_are_sorted_key_json_with_lf(self, tmp_path):
        path = tmp_path / "inst.jsonl"
        write_jsonl(path, [validate([1, 0, 1, 0])])
        raw = path.read_bytes()
        assert raw == b'{"n":2,"sequence":[1,0,1,0]}\n'
        assert json.loads(raw) == {"n": 2, "sequence": [1, 0, 1, 0]}

    @pytest.mark.parametrize(
        "bad_line, error, text",
        [
            ("[1,2]", BadRecord, "line 2: expected a JSON object, got list"),
            ('{"sequence":[0,0]}', BadRecord, "line 2: missing key 'n'"),
            ('{"n":1}', BadRecord, "line 2: missing key 'sequence'"),
            ('{"n":true,"sequence":[0,0]}', BadRecord,
             'line 2: "n" must be an integer, got true'),
            ('{"n":1.0,"sequence":[0,0]}', BadRecord,
             'line 2: "n" must be an integer, got 1.0'),
            ('{"n":"1","sequence":[0,0]}', BadRecord,
             'line 2: "n" must be an integer, got "1"'),
            ('{"n":2,"sequence":[0,1,1,0.5]}', BadIdentifier, "line 2: "),
            ('{"n":2,"sequence":[0,1,1]}', WrongMultiplicity, "line 2: "),
            ('{"n":3,"sequence":[0,1,1,0]}', WrongMultiplicity, "line 2: declared n=3"),
            ('{"n":1,"sequence":[100000000000000000000000,100000000000000000000000]}',
             BadIdentifier, "line 2: car identifier 100000000000000000000000 exceeds"),
            ('{"n":1,"sequence":[0,0] "x":1}', BadRecord,
             "line 2: Expecting ',' delimiter at column 25"),
            pytest.param("[" * 100_000, BadRecord, "line 2: maximum recursion depth exceeded",
                         id="deep-nesting"),
            pytest.param('{"n":1,"sequence":[%s]}' % ("1" * 5000), BadRecord,
                         "line 2: Exceeds the limit (4300 digits) for integer string",
                         id="5000-digit-int"),
        ],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, bad_line, error, text):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":1,"sequence":[0,0]}\n' + bad_line + "\n")
        with pytest.raises(error) as info:
            read_jsonl(path)
        assert str(info.value).startswith(text)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"n":1,"sequence":[0,0]}\n\n  \n{"n":2,"sequence":[1,0,0,1]}\n')
        assert [inst.sequence.tolist() for inst in read_jsonl(path)] == [[0, 0], [1, 0, 0, 1]]

    def test_non_utf8_file_is_a_bad_record(self, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"n":1,"sequence":[0,0]}\n'.encode("utf-16-le"))
        with pytest.raises(BadRecord, match="not UTF-8 text"):
            read_jsonl(path)
