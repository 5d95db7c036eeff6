"""Compilation of the QAOA circuit to a trapped-ion native gate set.

Native gates:

* ``r``: single-qubit R(theta, phi) =
  [[cos(theta/2), -i e^{-i phi} sin(theta/2)],
   [-i e^{i phi} sin(theta/2), cos(theta/2)]];
  R_X(theta) = R(theta, 0), R_Y(theta) = R(theta, pi/2).
* ``rxx``: two-qubit R_XX(alpha) = exp(-i alpha XX / 2).
* ``rz``: virtual R_Z(theta) = exp(-i theta Z / 2) (zero-cost phase advance).

Pushing the initial Hadamard layer through the circuit turns every phase
layer into an R_XX layer (coupling sign and magnitude folded into the
angle), every intermediate mixer into a virtual Z layer, and the final
mixer-plus-Hadamard into R_Y(pi/2) followed by R_X(2 beta_p - pi), up to a
global phase.  Depth is the plain gate count (sequential execution):
p * m two-qubit gates plus n * (p + 1) single-qubit gates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TooLarge
from .ising import CouplingGraph
from .qaoa.params import PHASE_SCALE, QaoaParams
from .qaoa.statevector import _MAX_QUBITS, Statevector, _apply_1q


# Each gate kind once: its JSON qubit field ("qubits" holds a pair) and its
# angle fields, in wire key order after "kind".
_WIRE_FIELDS = {
    "rxx": ("qubits", ("angle",)),
    "r": ("qubit", ("theta", "phi")),
    "rz": ("qubit", ("theta",)),
}


def _wire_fields(kind: str) -> tuple:
    try:
        return _WIRE_FIELDS[kind]
    except KeyError:
        raise ValueError(f"unknown gate kind {kind!r}") from None


@dataclass(frozen=True)
class NativeGate:
    kind: str
    qubits: tuple
    angles: tuple

    def to_json(self) -> dict:
        qubit_key, angle_keys = _wire_fields(self.kind)
        qubits = list(self.qubits) if qubit_key == "qubits" else self.qubits[0]
        return {"kind": self.kind, qubit_key: qubits, **dict(zip(angle_keys, self.angles))}


@dataclass(frozen=True)
class NativeCircuit:
    n: int
    gates: tuple

    @property
    def depth(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class GateCounts:
    depth: int
    singles: int
    doubles: int


def rxx(i: int, j: int, angle: float) -> NativeGate:
    return NativeGate(kind="rxx", qubits=(i, j), angles=(angle,))


def r(qubit: int, theta: float, phi: float) -> NativeGate:
    return NativeGate(kind="r", qubits=(qubit,), angles=(theta, phi))


def rz(qubit: int, theta: float) -> NativeGate:
    return NativeGate(kind="rz", qubits=(qubit,), angles=(theta,))


def compile_qaoa(graph: CouplingGraph, params: QaoaParams) -> NativeCircuit:
    """Native-gate realization of the p-level circuit on |0...0>.

    Equivalent to the reference simulator's unitary applied to |+...+>, up
    to global phase.  Couplings are visited in sorted order so the gate list
    is deterministic.
    """
    pairs = sorted(graph.couplings)
    gates: list[NativeGate] = []

    def phase_layer(gamma: float) -> None:
        # exp(-i gamma * PHASE_SCALE * J * XX) = R_XX(2 gamma * PHASE_SCALE * J)
        for a, b in pairs:
            gates.append(rxx(a, b, 2 * gamma * PHASE_SCALE * graph.couplings[(a, b)]))

    angles = params.angles
    phase_layer(angles[0][0])
    for level in range(1, params.p):
        beta_prev = angles[level - 1][1]
        for q in range(graph.n):
            gates.append(rz(q, 2 * beta_prev))  # exp(-i beta Z) virtually
        phase_layer(angles[level][0])
    beta_last = angles[-1][1]
    for q in range(graph.n):
        gates.append(r(q, np.pi / 2, np.pi / 2))
    for q in range(graph.n):
        gates.append(r(q, 2 * beta_last - np.pi, 0.0))
    return NativeCircuit(n=graph.n, gates=tuple(gates))


def gate_counts(circuit: NativeCircuit) -> GateCounts:
    doubles = sum(len(g.qubits) == 2 for g in circuit.gates)
    return GateCounts(depth=circuit.depth, singles=circuit.depth - doubles, doubles=doubles)


def _gate_matrix(gate: NativeGate) -> np.ndarray:
    if gate.kind == "r":
        theta, phi = gate.angles
        c = np.cos(theta / 2)
        s = np.sin(theta / 2)
        return np.array(
            [
                [c, -1j * np.exp(-1j * phi) * s],
                [-1j * np.exp(1j * phi) * s, c],
            ],
            dtype=np.complex128,
        )
    if gate.kind == "rz":
        (theta,) = gate.angles
        return np.array(
            [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
            dtype=np.complex128,
        )
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _apply_rxx(state: np.ndarray, alpha: float, bit_a: int, bit_b: int) -> None:
    """In-place R_XX(alpha) = cos(alpha/2) I - i sin(alpha/2) X_a X_b on two index bits.

    X_a X_b psi is psi with both bits reversed, a view formed without a copy;
    the only temporary is its scaled copy.
    """
    lo, hi = sorted((bit_a, bit_b))
    t = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    flipped = complex(-1j * np.sin(alpha / 2)) * t[:, ::-1, :, ::-1]
    t *= float(np.cos(alpha / 2))
    t += flipped


def simulate_native(circuit: NativeCircuit, *, cap_qubits: int = 22) -> Statevector:
    """Run the native circuit on |0...0>; more than 30 qubits raise TooLarge at any cap.

    Amplitudes are always complex128: 16 GiB at 30 qubits, and each R_XX
    holds one more state-sized temporary while it is applied.
    """
    n = circuit.n
    cap = min(cap_qubits, _MAX_QUBITS)
    if n > cap:
        raise TooLarge(f"native simulation capped at {cap} qubits, got {n}")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        if gate.kind == "rxx":
            _apply_rxx(state, gate.angles[0], *gate.qubits)
        else:
            _apply_1q(state, _gate_matrix(gate).tolist(), gate.qubits[0])
    return Statevector(qubit_ids=tuple(range(n)), amplitudes=state)


def state_fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>| with both states normalized; global phase drops out."""
    if a.qubit_ids != b.qubit_ids:
        raise ValueError("states are over different qubits")
    va = a.amplitudes / np.linalg.norm(a.amplitudes)
    vb = b.amplitudes / np.linalg.norm(b.amplitudes)
    return float(np.abs(np.vdot(va, vb)))


def circuit_to_json(circuit: NativeCircuit) -> dict:
    """Stable JSON form: {"n": ..., "gates": [...]} in execution order."""
    return {"n": circuit.n, "gates": [g.to_json() for g in circuit.gates]}


def circuit_from_json(obj: dict) -> NativeCircuit:
    gates = []
    for g in obj["gates"]:
        qubit_key, angle_keys = _wire_fields(g["kind"])
        qubits = tuple(g[qubit_key]) if qubit_key == "qubits" else (g[qubit_key],)
        gates.append(NativeGate(g["kind"], qubits, tuple(g[k] for k in angle_keys)))
    return NativeCircuit(n=int(obj["n"]), gates=tuple(gates))
