"""Circuit simulation, fixed schedule, sampling, approximation metrics.

The two frozen literals below were produced by standalone dense linear
algebra (explicit Kronecker products, no package code); the circuit under
test must reproduce them.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from paintshop import (
    CouplingGraph,
    DegenerateBaseline,
    QaoaParams,
    TooLarge,
    UnknownParams,
    brute_force_opt,
    color_change_vector,
    delta_c_metric,
    easy_instance,
    expectation,
    instance_rng,
    p_alpha,
    random_guess_expectation,
    random_instance,
    sample,
    simulate_state,
    to_ising,
    tree_params,
    validate,
    z_expectations,
)
from paintshop.qaoa import Statevector, pair_energy_vector, statevector
from paintshop.qaoa.params import PHASE_SCALE

# independently recomputed dense references (see module docstring)
PAIR_WORD = [0, 1, 0, 1]          # single coupling J=-1
PAIR_E_ADJ = -0.499983739436874
PAIR_MEAN_DC = 1.250008130281563
TRIPLE_WORD = [0, 1, 2, 0, 1, 2]  # couplings -2, -2, +1
TRIPLE_E_ADJ = -2.324915382293067
TRIPLE_MEAN_DC = 1.337542308853466

SCHEDULE = {
    1: [(0.52358, -0.39269)],
    2: [(0.40784, -0.53411), (0.73974, -0.28296)],
    3: [(0.35450, -0.58794), (0.65138, -0.42318), (0.75426, -0.22301)],
    4: [
        (0.31500, -0.60498),
        (0.58754, -0.47780),
        (0.67322, -0.36127),
        (0.77120, -0.18753),
    ],
    5: [
        (0.29092, -0.62254),
        (0.54678, -0.50507),
        (0.60334, -0.41672),
        (0.68722, -0.32534),
        (0.78446, -0.16280),
    ],
}


class TestSchedule:
    def test_table_values(self):
        for p, pairs in SCHEDULE.items():
            params = tree_params(p)
            assert params.p == p
            assert [tuple(row) for row in params.angles] == pairs

    def test_unknown_depth(self):
        with pytest.raises(UnknownParams):
            tree_params(6)
        with pytest.raises(UnknownParams):
            tree_params(0)

    @pytest.mark.parametrize("angles", [
        (), ((0.1,),), ((0.1, 0.2, 0.3),), ((0.1, 0.2), 0.3), [(0.1, 0.2)], ([0.1, 0.2],),
        np.array([[0.1, 0.2]]), ((math.nan, 0.1),), ((0.1, -math.inf),), ((np.float32("nan"), 0.1),),
        ((True, 0.1),), ((0.1, np.True_),), (("0.1", 0.2),), ((1j, 0.2),), ((None, 0.2),),
    ])
    def test_malformed_schedule_raises_at_construction(self, angles):
        """Anything but a non-empty tuple of (gamma, beta) pairs of finite reals
        is refused before any evaluator sees it."""
        with pytest.raises(ValueError, match="is not \\(gamma, beta\\) pairs of finite reals"):
            QaoaParams(angles)

    def test_numpy_and_integer_angles_construct(self):
        angles = ((np.float32(0.5), np.int64(-1)), (1, np.float64(0.25)))
        assert QaoaParams(angles).angles == angles


class TestFrozenReferences:
    def test_two_qubit_depth_one(self):
        summary = expectation(to_ising(validate(PAIR_WORD)), tree_params(1))
        assert summary.mean_adjacency_energy == pytest.approx(
            PAIR_E_ADJ, abs=1e-12
        )
        assert summary.mean_color_changes == pytest.approx(
            PAIR_MEAN_DC, abs=1e-12
        )

    def test_three_qubit_depth_two(self):
        summary = expectation(to_ising(validate(TRIPLE_WORD)), tree_params(2))
        assert summary.mean_adjacency_energy == pytest.approx(
            TRIPLE_E_ADJ, abs=1e-12
        )
        assert summary.mean_color_changes == pytest.approx(
            TRIPLE_MEAN_DC, abs=1e-12
        )


class TestStatevector:
    def test_zero_phase_angle_reduces_to_random_guessing(self):
        # without the phase layer the state stays an X eigenstate: uniform
        inst = random_instance(8, instance_rng(31, 0))
        summary = expectation(to_ising(inst), QaoaParams(((0.0, 0.7),)))
        assert summary.mean_color_changes == pytest.approx(
            random_guess_expectation(inst), abs=1e-9
        )

    def test_norm_and_size(self):
        inst = random_instance(9, instance_rng(31, 1))
        state = simulate_state(to_ising(inst), tree_params(3))
        assert state.amplitudes.shape == (2**9,)
        assert np.abs(state.amplitudes) ** 2 @ np.ones(2**9) == pytest.approx(1.0)
        assert state.qubit_ids == tuple(range(9))

    def test_single_qubit_expectations_vanish(self):
        # spin-flip symmetry of the circuit forces <Z_i> = 0
        for p in (1, 2, 5):
            inst = random_instance(7, instance_rng(31, p))
            state = simulate_state(to_ising(inst), tree_params(p))
            assert np.abs(z_expectations(state)).max() < 1e-9

    def test_time_reversal_pairing(self):
        # negating every angle conjugates the state: energies are unchanged
        inst = random_instance(7, instance_rng(31, 9))
        g = to_ising(inst)
        fwd = tree_params(2)
        rev = QaoaParams(tuple((-a, -b) for a, b in fwd.angles))
        assert expectation(g, fwd).mean_adjacency_energy == pytest.approx(
            expectation(g, rev).mean_adjacency_energy, abs=1e-12
        )

    def test_qubit_cap(self):
        with pytest.raises(TooLarge):
            simulate_state(
                to_ising(random_instance(12, 0)), tree_params(1), cap_qubits=10
            )

    def test_rejects_more_than_30_qubits_whatever_the_cap(self):
        with pytest.raises(TooLarge, match="capped at 30 qubits, got 31"):
            simulate_state(
                to_ising(random_instance(31, 0)), tree_params(1), cap_qubits=40
            )

    def test_expectation_builds_the_energy_vector_once(self, monkeypatch):
        calls = []
        original = statevector.pair_energy_vector

        def counted(graph, *args):
            calls.append(graph)
            return original(graph, *args)

        monkeypatch.setattr(statevector, "pair_energy_vector", counted)
        expectation(to_ising(random_instance(6, 0)), tree_params(2))
        assert len(calls) == 1

    def test_color_change_vector_brackets_every_assignment(self):
        inst = random_instance(6, instance_rng(31, 12))
        costs = color_change_vector(inst)
        assert costs.shape == (64,)
        assert costs.min() >= 1
        assert costs.max() <= 2 * 6 - 1


def _spin(index, qubit):
    return 1 - 2 * ((index >> qubit) & 1)


def _random_graph(rng, n, values=(-2, -1, 1, 2)):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return CouplingGraph(n=n, couplings={e: int(rng.choice(values)) for e in pairs},
                         constant=0)


def _literal_energies(graph):
    return np.array([
        sum(val * _spin(x, i) * _spin(x, j) for (i, j), val in graph.couplings.items())
        for x in range(1 << graph.n)
    ], dtype=np.int64)


def _on_qubit(mat, qubit, n):
    """mat acting on index bit ``qubit`` of an n-qubit state (bit t = kron slot n-1-t)."""
    out = np.eye(1)
    for t in reversed(range(n)):
        out = np.kron(out, mat if t == qubit else np.eye(2))
    return out


def _full_state_loop(graph, params):
    """The dense loop that evolves every amplitude: each level's phases, then
    the mixer on every bit."""
    n = graph.n
    reach = sum(abs(value) for value in graph.couplings.values())
    shifted = pair_energy_vector(graph) + reach
    levels = np.arange(-reach, reach + 1, dtype=np.int64)
    state = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=np.complex128)
    scratch = np.empty_like(state)
    for gamma, beta in params.angles:
        table = np.exp((-1j * gamma * PHASE_SCALE) * levels)
        np.multiply(state, table[shifted], out=state)
        for bit in range(n):
            statevector._rotate_x(state, beta, (bit,), scratch)
    return state


X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class TestDenseKernels:
    def test_energies_match_the_per_index_sum(self):
        rng = np.random.default_rng(61)
        graphs = [CouplingGraph(n=5, couplings={}, constant=0)]
        graphs += [_random_graph(rng, n) for n in range(1, 13)]
        graphs += [_random_graph(rng, n, values=(-2, 2)) for n in (2, 7, 11)]
        # keys inserted in shuffled order, so the adjacency lists neighbours out of order
        for n in (4, 8, 12):
            items = list(_random_graph(rng, n).couplings.items())
            rng.shuffle(items)
            graphs.append(CouplingGraph(n=n, couplings=items, constant=0))
        for g in graphs:
            got = pair_energy_vector(g)
            assert got.dtype == np.int64
            assert np.array_equal(got, _literal_energies(g))

    @pytest.mark.parametrize("dtype, tol", [(np.complex128, 1e-12), (np.complex64, 1e-6)])
    def test_rotation_matches_the_small_matrix(self, dtype, tol):
        rng = np.random.default_rng(63)
        n = 5
        # (bits, phi): the axis X_S, cos(phi) X + sin(phi) Y on one bit, or
        # (phi None) Z through the phase kernel
        cases = [((0,), 0.0), ((3,), 0.0), ((4,), 0.0), ((0, 1), 0.0), ((1, 4), 0.0),
                 ((4, 2), 0.0), ((3, 0), 0.0), ((0,), 0.7), ((2,), np.pi / 2), ((4,), -2.1),
                 ((0,), None), ((3,), None), ((4,), None)]
        for bits, phi in cases:
            theta = float(rng.uniform(-np.pi, np.pi))
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            if phi is None:
                axis = _on_qubit(Z, bits[0], n)
            else:
                axis = np.eye(1 << n)
                for b in bits:
                    axis = axis @ _on_qubit(np.cos(phi) * X + np.sin(phi) * Y, b, n)
            # exp(-i theta P): on one bit the 2x2 cos(theta) I - i sin(theta) P,
            # on two the 4x4 with -is on the anti-diagonal, here embedded by kron
            op = np.cos(theta) * np.eye(1 << n) - 1j * np.sin(theta) * axis
            state = psi.astype(dtype)
            if phi is None:
                statevector._phase_z(state, theta, bits[0])
            else:
                statevector._rotate_x(state, theta, bits, np.empty_like(state), phi)
            assert state.dtype == dtype
            assert np.abs(state - op @ psi).max() <= tol

    def test_simulate_state_matches_kron_products(self):
        rng = np.random.default_rng(64)
        for n in range(1, 7):
            g = _random_graph(rng, n)
            angles = tuple(tuple(float(a) for a in rng.uniform(-np.pi, np.pi, 2))
                           for _ in range(int(rng.integers(1, 4))))
            energies = _literal_energies(g)
            psi = np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128)
            for gamma, beta in angles:
                rx = np.array([[np.cos(beta), -1j * np.sin(beta)],
                               [-1j * np.sin(beta), np.cos(beta)]])
                mixer = np.eye(1)
                for _ in range(n):
                    mixer = np.kron(mixer, rx)
                psi = mixer @ (np.exp(-0.5j * gamma * energies) * psi)
            got = simulate_state(g, QaoaParams(angles)).amplitudes
            assert np.abs(got - psi).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 14), p=st.integers(1, 5))
    def test_half_state_matches_the_full_state_loop_bit_for_bit(self, data, n, p):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        values = st.sampled_from([-3, -2, -1, 1, 2, 3])
        g = CouplingGraph(n=n, couplings={e: data.draw(values) for e in chosen}, constant=0)
        angle = st.floats(-np.pi, np.pi, allow_nan=False)
        params = QaoaParams(tuple((data.draw(angle), data.draw(angle)) for _ in range(p)))
        amps = simulate_state(g, params).amplitudes
        assert np.array_equal(amps, _full_state_loop(g, params))
        assert np.array_equal(amps, amps[::-1])

    def test_no_qubits_give_the_unit_amplitude(self):
        g = CouplingGraph(n=0, couplings={}, constant=0)
        amps = simulate_state(g, tree_params(3)).amplitudes
        assert amps.dtype == np.complex128
        assert np.array_equal(amps, [1])

    def test_z_expectations_match_the_exact_sum(self):
        rng = np.random.default_rng(65)
        for k in range(1, 11):
            amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
            amps /= np.linalg.norm(amps)
            probs = np.abs(amps) ** 2
            x = np.arange(1 << k)
            exact = [math.fsum(probs * _spin(x, t)) for t in range(k)]
            got = z_expectations(Statevector(tuple(range(k)), amps))
            assert np.abs(got - exact).max() <= 1e-15

    def test_expectation_stays_within_its_stated_footprint(self):
        # Per amplitude: the complex128 state and its scratch buffer (16 + 16)
        # and the int64 energies (8); the readout holds the state, the
        # energies, float64 probabilities and the float64 cast of the energies
        # (16 + 8 + 8 + 8).  Both are 40 bytes.  256 KiB covers numpy's
        # 8192-element iteration buffer, the O(m) phase tables and Python
        # objects.
        n = 18
        g = to_ising(random_instance(n, instance_rng(66, 0)))
        tracemalloc.start()
        try:
            expectation(g, tree_params(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**n + 256 * 1024

    def test_simulate_state_stays_within_its_stated_footprint(self):
        # Per amplitude: the complex128 state (16), the int64 energies (8) and
        # a complex128 scratch buffer for the half of the state that is
        # evolved (16 / 2): 32 bytes.  256 KiB covers numpy's 8192-element
        # iteration buffer (128 KiB for the reversed half), the O(m) phase
        # tables and Python objects.
        n = 18
        g = to_ising(random_instance(n, instance_rng(66, 0)))
        tracemalloc.start()
        try:
            simulate_state(g, tree_params(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**n + 256 * 1024


class TestSampling:
    def test_rows_are_signs_with_matching_distribution(self):
        inst = random_instance(3, instance_rng(32, 0))
        state = simulate_state(to_ising(inst), tree_params(1))
        shots = 40_000
        draws = sample(state, shots, instance_rng(32, 1))
        assert draws.shape == (shots, 3)
        assert set(np.unique(draws)) <= {-1, 1}
        # chi-square against the exact Born weights over the 8 outcomes
        bits = (draws == -1).astype(np.int64)
        indices = bits @ (1 << np.arange(3))
        observed = np.bincount(indices, minlength=8)
        expected = shots * np.abs(state.amplitudes) ** 2
        result = sps.chisquare(observed, expected)
        assert result.pvalue > 1e-4

    def test_sampling_is_seed_deterministic(self):
        inst = random_instance(5, instance_rng(32, 2))
        state = simulate_state(to_ising(inst), tree_params(1))
        a = sample(state, 100, instance_rng(32, 3))
        b = sample(state, 100, instance_rng(32, 3))
        assert np.array_equal(a, b)

    def test_int_seed_is_a_default_rng(self):
        state = simulate_state(to_ising(random_instance(5, instance_rng(32, 4))), tree_params(1))
        assert np.array_equal(sample(state, 100, 5), sample(state, 100, np.random.default_rng(5)))


class TestApproximationMass:
    def test_easy_instances_always_within_twice_optimum(self):
        for n in (2, 5, 9, 13):
            inst = easy_instance(n)
            state = simulate_state(to_ising(inst), tree_params(1))
            assert p_alpha(inst, state, 2.0) == 1.0

    def test_uniform_state_alpha_one_equals_degeneracy_fraction(self):
        # a zero-phase circuit leaves uniform outcome weights
        inst = random_instance(8, instance_rng(33, 0))
        state = simulate_state(to_ising(inst), QaoaParams(((0.0, 0.3),)))
        res = brute_force_opt(inst)
        assert p_alpha(inst, state, 1.0) == pytest.approx(
            res.degeneracy / 2**8, abs=1e-9
        )

    def test_threshold_is_inclusive(self):
        inst = easy_instance(4)  # costs span 4..7 exactly
        state = simulate_state(to_ising(inst), QaoaParams(((0.0, 0.0),)))
        costs = color_change_vector(inst)
        mass = p_alpha(inst, state, 1.5)  # alpha*opt = 6, inclusive
        assert mass == pytest.approx(float((costs <= 6).mean()), abs=1e-12)
        assert mass > p_alpha(inst, state, 1.49)

    def test_rejects_mismatched_state(self):
        inst = random_instance(4, instance_rng(33, 1))
        other = simulate_state(to_ising(random_instance(5, 1)), tree_params(1))
        with pytest.raises(ValueError):
            p_alpha(inst, other, 2.0)


class TestDeltaC:
    def test_fixed_points(self):
        assert delta_c_metric(3.0, 3.0, 5.0) == 0.0
        assert delta_c_metric(5.0, 3.0, 5.0) == 1.0
        assert delta_c_metric(4.0, 3.0, 5.0) == 0.5

    def test_degenerate_baseline(self):
        with pytest.raises(DegenerateBaseline):
            delta_c_metric(1.0, 2.0, 2.0)
