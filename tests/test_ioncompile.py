"""Native-gate compilation: exact structure, unitary equivalence, wire format."""
import json

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
from paintshop.ioncompile import NativeCircuit, NativeGate, r, rxx, rz
from paintshop.qaoa import QaoaParams


def embed(mat, bit, n):
    """A one-qubit matrix acting on index bit ``bit`` of an n-qubit state."""
    return np.kron(np.kron(np.eye(1 << (n - 1 - bit)), mat), np.eye(1 << bit))


def kron_unitary(gate, n):
    """Full 2^n x 2^n matrix of one native gate, from the documented formulas."""
    x = np.array([[0, 1], [1, 0]])
    if gate.kind == "rxx":
        (alpha,) = gate.angles
        a, b = gate.qubits
        xx = embed(x, a, n) @ embed(x, b, n)
        return np.cos(alpha / 2) * np.eye(1 << n) - 1j * np.sin(alpha / 2) * xx
    if gate.kind == "r":
        theta, phi = gate.angles
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        mat = [[c, -1j * np.exp(-1j * phi) * s], [-1j * np.exp(1j * phi) * s, c]]
    else:
        (theta,) = gate.angles
        mat = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    return embed(np.array(mat), gate.qubits[0], n)


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
        # r(pi/2, pi/2) then r(2b-pi, 0) == global phase * exp(-i b X) H, both
        # from the documented formulas and as simulated: the columns are the
        # runs on |0> and on i r(pi, 0)|0> = |1>.
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        x = np.array([[0, 1], [1, 0]])
        for b in (-0.39269, 0.3, 1.1, 0.0):
            mixer = (
                np.cos(b) * np.eye(2) - 1j * np.sin(b) * x
            ) @ h
            pair = (r(0, np.pi / 2, np.pi / 2), r(0, 2 * b - np.pi, 0.0))
            documented = kron_unitary(pair[1], 1) @ kron_unitary(pair[0], 1)
            flip = (r(0, np.pi, 0.0),)
            simulated = np.column_stack([
                simulate_native(NativeCircuit(n=1, gates=pair)).amplitudes,
                1j * simulate_native(NativeCircuit(n=1, gates=flip + pair)).amplitudes,
            ])
            for native in (documented, simulated):
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

    def test_random_gate_lists_match_kron_matrices(self):
        rng = np.random.default_rng(54)
        orders = set()
        for n in (2, 3, 4, 5):
            for _ in range(8):
                gates = []
                for _ in range(24):
                    kind = rng.choice(["rxx", "r", "rz"])
                    theta, phi = (float(v) for v in rng.uniform(-np.pi, np.pi, 2))
                    if kind == "rxx":
                        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
                        orders.add((a > b, abs(a - b) > 1))
                        gates.append(rxx(a, b, theta))
                    elif kind == "r":
                        gates.append(r(int(rng.integers(n)), theta, phi))
                    else:
                        gates.append(rz(int(rng.integers(n)), theta))
                state = np.zeros(1 << n, dtype=complex)
                state[0] = 1.0
                for gate in gates:
                    state = kron_unitary(gate, n) @ state
                native = simulate_native(NativeCircuit(n=n, gates=tuple(gates)))
                assert np.abs(native.amplitudes - state).max() < 1e-12
        # both qubit orders, adjacent and non-adjacent bits
        assert orders == {(False, False), (False, True), (True, False), (True, True)}

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
        mat = kron_unitary(rz(0, 1.3), 1)
        assert mat[0, 1] == mat[1, 0] == 0
        assert mat[0, 0] == pytest.approx(np.exp(-1j * 0.65))
        # simulated on |0> and on i r(pi, 0)|0> = |1>: only the phase moves
        on_zero = simulate_native(NativeCircuit(n=1, gates=(rz(0, 1.3),))).amplitudes
        assert on_zero[1] == 0
        assert on_zero[0] == pytest.approx(np.exp(-1j * 0.65), abs=1e-15)
        on_one = 1j * simulate_native(
            NativeCircuit(n=1, gates=(r(0, np.pi, 0.0), rz(0, 1.3)))
        ).amplitudes
        assert np.abs(on_one - [0, np.exp(0.65j)]).max() <= 1e-15

    def test_r_half_angle_convention(self):
        mat = kron_unitary(r(0, np.pi, 0.0), 1)  # full X rotation
        assert np.allclose(mat, -1j * np.array([[0, 1], [1, 0]]))
        # simulated: R(theta, phi)|0> = (cos(theta/2), -i e^{i phi} sin(theta/2))
        for theta, phi in ((np.pi, 0.0), (np.pi / 2, 0.0), (np.pi, np.pi / 2), (0.7, -2.1)):
            state = simulate_native(NativeCircuit(n=1, gates=(r(0, theta, phi),))).amplitudes
            want = [np.cos(theta / 2), -1j * np.exp(1j * phi) * np.sin(theta / 2)]
            assert np.abs(state - want).max() <= 1e-15

    def test_directly_built_unknown_kind_is_rejected(self):
        circ = NativeCircuit(n=2, gates=(NativeGate("cz", (0, 1), ()),))
        with pytest.raises(ValueError, match="unknown gate kind 'cz'"):
            simulate_native(circ)

    @pytest.mark.parametrize(
        "gate, message",
        [
            (rz(5, 0.1), r"gate 1 \(rz\): bad 'qubit': 5"),
            (rxx(1, 1, 0.2), r"gate 1 \(rxx\): bad 'qubits': \[1, 1\]"),
            (r(-1, 0.3, 0.0), r"gate 1 \(r\): bad 'qubit': -1"),
            (NativeGate("rxx", (0,), (0.2,)), r"gate 1 \(rxx\): bad 'qubits': \[0\]"),
            (rxx(0, 10**5000, 0.2), r"gate 1 \(rxx\): bad 'qubits': \[0, <int of 16610 bits>\]"),
        ],
        ids=["rz-beyond-n", "rxx-same-qubit", "r-negative", "rxx-one-qubit", "rxx-past-str"],
    )
    def test_directly_built_bad_qubits_are_rejected(self, gate, message):
        circ = NativeCircuit(n=2, gates=(rz(0, 0.1), gate))
        with pytest.raises(ValueError, match=message):
            simulate_native(circ)

    @pytest.mark.parametrize(
        "gate, message",
        [
            (NativeGate("r", (0,), (0.1,)), r"gate 1 \(r\): bad 'angles': \(0.1,\)"),
            (NativeGate("rz", (0,), ()), r"gate 1 \(rz\): bad 'angles': \(\)"),
            (rz(0, float("nan")), r"gate 1 \(rz\): bad 'theta': nan"),
            # math.isfinite raises OverflowError on an int past the float range
            (rz(0, 10**400), r"gate 1 \(rz\): bad 'theta': 1000"),
            (r(0, 0.1, -(10**309)), r"gate 1 \(r\): bad 'phi': -1000"),
            # past Python's 4300-digit limit an int has no str: shown by its bit length
            (rz(0, 10**5000), r"gate 1 \(rz\): bad 'theta': <int of 16610 bits>"),
            (NativeGate("rz", (0,), (10**5000, 0.1)),
             r"gate 1 \(rz\): bad 'angles': \(<int of 16610 bits>, 0.1\)"),
        ],
        ids=["r-one-angle", "rz-no-angle", "rz-nan", "rz-int-past-float", "r-int-past-float",
             "rz-int-past-str", "angles-int-past-str"],
    )
    def test_directly_built_bad_angles_are_rejected(self, gate, message):
        circ = NativeCircuit(n=2, gates=(rz(0, 0.1), gate))
        with pytest.raises(ValueError, match=message):
            simulate_native(circ)


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

    def test_key_order_of_each_kind(self):
        assert list(rxx(0, 1, 0.5).to_json()) == ["kind", "qubits", "angle"]
        assert list(r(0, 0.5, 0.25).to_json()) == ["kind", "qubit", "theta", "phi"]
        assert list(rz(0, 0.5).to_json()) == ["kind", "qubit", "theta"]

    def test_wire_bytes_are_pinned(self):
        circ = NativeCircuit(
            n=3, gates=(rxx(2, 0, 0.25), rz(1, -1.5), r(0, 1.5707963267948966, 0.0))
        )
        wire = json.dumps(circuit_to_json(circ))
        assert wire == (
            '{"n": 3, "gates": [{"kind": "rxx", "qubits": [2, 0], "angle": 0.25}, '
            '{"kind": "rz", "qubit": 1, "theta": -1.5}, '
            '{"kind": "r", "qubit": 0, "theta": 1.5707963267948966, "phi": 0.0}]}'
        )
        assert circuit_from_json(json.loads(wire)) == circ

    def test_unknown_kind_is_rejected(self):
        obj = {"n": 2, "gates": [{"kind": "cz", "qubits": [0, 1]}]}
        with pytest.raises(ValueError, match="unknown gate kind 'cz'"):
            circuit_from_json(obj)

    @pytest.mark.parametrize(
        "gate, field",
        [
            ({"kind": "rxx", "qubits": [1, 1], "angle": 0.5}, "qubits"),
            ({"kind": "rxx", "qubits": [0], "angle": 0.5}, "qubits"),
            ({"kind": "rz", "qubit": -1, "theta": 0.5}, "qubit"),
            ({"kind": "rz", "qubit": 4, "theta": 0.5}, "qubit"),
            ({"kind": "rz", "qubit": True, "theta": 0.5}, "qubit"),
            ({"kind": "rz", "qubit": 1, "theta": "0.3"}, "theta"),
            ({"kind": "rz", "qubit": 1, "theta": False}, "theta"),
            ({"kind": "rz", "qubit": 1}, "theta"),
            ({"kind": "r", "qubit": 1, "theta": 0.5}, "phi"),
        ],
        ids=["rxx-same-qubit", "rxx-one-qubit", "negative-qubit", "qubit-beyond-n",
             "bool-qubit", "str-angle", "bool-angle", "missing-theta", "missing-phi"],
    )
    def test_malformed_gate_is_rejected_when_parsed(self, gate, field):
        obj = {"n": 2, "gates": [{"kind": "rz", "qubit": 0, "theta": 0.1}, gate]}
        with pytest.raises(ValueError, match=f"gate 1 .*'{field}'"):
            circuit_from_json(obj)

    def test_int_angles_are_checked_against_the_float_range(self):
        with pytest.raises(ValueError, match=r"gate 0 \(rz\): bad 'theta': 1000"):
            circuit_from_json({"n": 1, "gates": [{"kind": "rz", "qubit": 0, "theta": 10**400}]})
        # the largest int that converts to a float is still an angle
        edge = int(np.finfo(float).max)
        circ = circuit_from_json({"n": 1, "gates": [{"kind": "rz", "qubit": 0, "theta": edge}]})
        assert np.isfinite(simulate_native(circ).amplitudes).all()
