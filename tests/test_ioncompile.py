"""Native-gate compilation: exact structure, unitary equivalence, wire format."""
import numpy as np
import pytest

from paintshop import (
    TooLarge,
    circuit_from_json,
    circuit_to_json,
    compile_qaoa,
    gate_counts,
    instance_rng,
    random_instance,
    simulate_native,
    simulate_state,
    state_fidelity,
    to_ising,
    tree_params,
)
from paintshop.ioncompile import _gate_matrix, r, rxx, rz
from paintshop.qaoa import QaoaParams


class TestStructure:
    def test_depth_and_counts_formulas(self):
        for k in range(15):
            inst = random_instance(4 + k, instance_rng(51, k))
            g = to_ising(inst)
            m, n = len(g.couplings), g.n
            for p in (1, 2, 3):
                counts = gate_counts(compile_qaoa(g, tree_params(p)))
                assert counts.doubles == p * m
                assert counts.singles == n * (p + 1)
                assert counts.depth == p * m + n * (p + 1)
                if p == 1:
                    assert counts.depth == m + 2 * n
                    assert (counts.singles, counts.doubles) == (2 * n, m)

    def test_gate_order_is_deterministic(self):
        g = to_ising(random_instance(10, instance_rng(51, 99)))
        a = compile_qaoa(g, tree_params(2))
        b = compile_qaoa(g, tree_params(2))
        assert a == b


class TestUnitaryEquivalence:
    def test_closing_pair_reproduces_mixer_after_basis_change(self):
        # r(pi/2, pi/2) then r(2b-pi, 0) == global phase * exp(-i b X) H
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        x = np.array([[0, 1], [1, 0]])
        for b in (-0.39269, 0.3, 1.1, 0.0):
            mixer = (
                np.cos(b) * np.eye(2) - 1j * np.sin(b) * x
            ) @ h
            native = _gate_matrix(r(0, 2 * b - np.pi, 0.0)) @ _gate_matrix(
                r(0, np.pi / 2, np.pi / 2)
            )
            overlap = abs(np.trace(native.conj().T @ mixer)) / 2
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_zero_angles_prepare_uniform_superposition(self):
        g = to_ising(random_instance(6, instance_rng(52, 0)))
        circ = compile_qaoa(g, QaoaParams(((0.0, 0.0),)))
        state = simulate_native(circ)
        uniform = np.full(2**6, 2**-3.0)
        overlap = abs(np.vdot(state.amplitudes, uniform))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference_simulator(self):
        for k in range(6):
            inst = random_instance(5 + k, instance_rng(52, 10 + k))
            g = to_ising(inst)
            for p in (1, 2, 3):
                params = tree_params(p)
                native = simulate_native(compile_qaoa(g, params))
                ref = simulate_state(g, params)
                assert state_fidelity(native, ref) >= 1 - 1e-9

    def test_fidelity_is_phase_insensitive(self):
        g = to_ising(random_instance(4, instance_rng(52, 40)))
        ref = simulate_state(g, tree_params(1))
        rotated = type(ref)(
            qubit_ids=ref.qubit_ids, amplitudes=ref.amplitudes * np.exp(0.7j)
        )
        assert state_fidelity(rotated, ref) == pytest.approx(1.0, abs=1e-12)


class TestQubitCeiling:
    def test_qubit_cap(self):
        circ = compile_qaoa(to_ising(random_instance(12, 0)), tree_params(1))
        with pytest.raises(TooLarge, match="capped at 10 qubits, got 12"):
            simulate_native(circ, cap_qubits=10)

    def test_rejects_70_qubits_before_allocating(self):
        circ = compile_qaoa(to_ising(random_instance(70, 0)), tree_params(1))
        with pytest.raises(TooLarge, match="capped at 30 qubits, got 70"):
            simulate_native(circ, cap_qubits=80)

    def test_rejects_more_than_30_qubits_whatever_the_cap(self):
        circ = compile_qaoa(to_ising(random_instance(31, 0)), tree_params(1))
        with pytest.raises(TooLarge, match="capped at 30 qubits, got 31"):
            simulate_native(circ, cap_qubits=40)


class TestGateMatrices:
    def test_rz_is_diagonal_virtual_rotation(self):
        mat = _gate_matrix(rz(0, 1.3))
        assert mat[0, 1] == mat[1, 0] == 0
        assert mat[0, 0] == pytest.approx(np.exp(-1j * 0.65))

    def test_rxx_commutes_across_qubit_order(self):
        assert np.allclose(_gate_matrix(rxx(0, 1, 0.8)),
                           _gate_matrix(rxx(1, 0, 0.8)).T)

    def test_r_half_angle_convention(self):
        mat = _gate_matrix(r(0, np.pi, 0.0))  # full X rotation
        assert np.allclose(mat, -1j * np.array([[0, 1], [1, 0]]))


class TestWireFormat:
    def test_json_schema_and_round_trip(self):
        g = to_ising(random_instance(5, instance_rng(53, 0)))
        circ = compile_qaoa(g, tree_params(2))
        obj = circuit_to_json(circ)
        assert obj["n"] == 5
        kinds = {gate["kind"] for gate in obj["gates"]}
        assert kinds == {"rxx", "rz", "r"}
        for gate in obj["gates"]:
            if gate["kind"] == "rxx":
                assert set(gate) == {"kind", "qubits", "angle"}
                assert len(gate["qubits"]) == 2
            elif gate["kind"] == "rz":
                assert set(gate) == {"kind", "qubit", "theta"}
            else:
                assert set(gate) == {"kind", "qubit", "theta", "phi"}
        back = circuit_from_json(obj)
        assert back == circ
