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

import math
from dataclasses import dataclass

import numpy as np

from .core import TooLarge
from .ising import CouplingGraph
from .qaoa.params import PHASE_SCALE, QaoaParams
from .qaoa.statevector import _MAX_QUBITS, Statevector, _phase_z, _rotate_x


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


def _check_qubits(index: int, kind: str, qubits: tuple, n: int) -> None:
    """ValueError naming the gate unless its qubits are ints in 0..n-1, one per wire."""
    qubit_key, _ = _wire_fields(kind)
    pair = qubit_key == "qubits"
    in_range = all(isinstance(q, (int, np.integer)) and type(q) is not bool and 0 <= q < n
                   for q in qubits)  # bool is an int subclass
    if not in_range or len(set(qubits)) != len(qubits) or len(qubits) != 1 + pair:
        wire = qubits[0] if len(qubits) == 1 and not pair else list(qubits)
        raise ValueError(f"gate {index} ({kind}): bad {qubit_key!r}: {wire!r}")


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


def simulate_native(circuit: NativeCircuit, *, cap_qubits: int = 22) -> Statevector:
    """Run the native circuit on |0...0>; more than 30 qubits raise TooLarge at any cap.

    Amplitudes are always complex128: 16 GiB at 30 qubits, and one scratch
    buffer as large serves every gate.  Each gate is a rotation by half its
    angle about a Pauli axis: R(theta, phi) and R_XX(alpha) run on the dense
    simulator's ``_rotate_x``, virtual RZ(theta) on ``_phase_z``.
    """
    n = circuit.n
    cap = min(cap_qubits, _MAX_QUBITS)
    if n > cap:
        raise TooLarge(f"native simulation capped at {cap} qubits, got {n}")
    for index, gate in enumerate(circuit.gates):
        _check_qubits(index, gate.kind, gate.qubits, n)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    scratch = np.empty_like(state)
    for gate in circuit.gates:
        if gate.kind == "rz":
            _phase_z(state, gate.angles[0] / 2, gate.qubits[0])
        else:  # an R gate's second angle is its axis phase
            _rotate_x(state, gate.angles[0] / 2, gate.qubits, scratch, *gate.angles[1:])
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
    """Inverse of ``circuit_to_json``, coercing nothing: ValueError names a bad gate and field.

    Qubits are ints in 0..n-1, an R_XX pair two distinct ones; angles finite ints or floats.
    """
    n = obj["n"]
    if type(n) is not int or n < 0:  # type(True) is bool
        raise ValueError(f"circuit n must be a non-negative int, got {n!r}")
    gates = []
    for index, g in enumerate(obj["gates"]):
        qubit_key, angle_keys = _wire_fields(g.get("kind"))
        pair = qubit_key == "qubits"
        qubits = g.get(qubit_key)
        qubits = tuple(qubits) if pair and isinstance(qubits, list) else (qubits,)
        _check_qubits(index, g["kind"], qubits, n)
        angles = tuple(g.get(key) for key in angle_keys)
        for key, a in zip(angle_keys, angles):
            if not (type(a) is int or isinstance(a, float) and math.isfinite(a)):
                raise ValueError(f"gate {index} ({g['kind']}): bad {key!r}: {a!r}")
        gates.append(NativeGate(g["kind"], qubits, angles))
    return NativeCircuit(n=n, gates=tuple(gates))
