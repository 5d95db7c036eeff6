"""Dense statevector simulation of the QAOA circuit and derived estimators.

Basis convention: for a state over ``qubit_ids``, bit t of a basis index is
the first color of ``qubit_ids[t]`` (0 -> spin +1, 1 -> spin -1), so index
bits, spins, and colorings convert without reordering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import BpspInstance, Coloring, TooLarge
from ..ising import CouplingGraph, to_ising
from .params import PHASE_SCALE, QaoaParams


# Whatever the cap.  At 30 qubits the dense simulator holds 8 GiB of complex64
# amplitudes and as much again of energies; simulate_native holds 16 GiB of
# complex128 amplitudes plus one as large while it applies an R_XX.
_MAX_QUBITS = 30


class DegenerateBaseline(ZeroDivisionError):
    """The random baseline coincides with the simulated mean."""


@dataclass(frozen=True)
class Statevector:
    qubit_ids: tuple
    amplitudes: np.ndarray


@dataclass(frozen=True)
class EnergySummary:
    mean_adjacency_energy: float
    mean_color_changes: float


def pair_energy_vector(graph: CouplingGraph) -> np.ndarray:
    """sum_ij J_ij s_i s_j per basis index, as an integer vector."""
    basis = np.arange(1 << graph.n, dtype=np.int64)
    energies = np.zeros(1 << graph.n, dtype=np.int64)
    for (i, j) in sorted(graph.couplings):
        parity = ((basis >> i) ^ (basis >> j)) & 1
        energies += graph.couplings[(i, j)] * (1 - 2 * parity)
    return energies


def _apply_1q(state: np.ndarray, mat, bit: int) -> None:
    """In-place 2x2 gate on the given index bit.

    ``mat`` = ((m00, m01), (m10, m11)) holds Python scalars, so single-precision
    states stay single precision.
    """
    (m00, m01), (m10, m11) = mat
    view = state.reshape(-1, 2, 1 << bit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def _x_rotation(beta: float) -> tuple:
    """exp(-i beta X) as Python scalars."""
    c = float(np.cos(beta))
    s = complex(-1j * np.sin(beta))
    return ((c, s), (s, c))


def _simulate(
    graph: CouplingGraph, params: QaoaParams, cap_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes after p levels from |+...+>, and the energy vector used."""
    n = graph.n
    cap = min(cap_qubits, _MAX_QUBITS)
    if n > cap:
        raise TooLarge(f"statevector capped at {cap} qubits, got {n}")
    dtype = np.complex128 if n <= 22 else np.complex64
    state = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=dtype)
    energies = pair_energy_vector(graph)
    for gamma, beta in params.angles:
        phases = np.exp((-1j * gamma * PHASE_SCALE) * energies)
        state = state * phases.astype(state.dtype, copy=False)
        mixer = _x_rotation(beta)
        for bit in range(n):
            _apply_1q(state, mixer, bit)
    return state, energies


def simulate_state(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    cap_qubits: int = 22,
) -> Statevector:
    """Evolve |+...+> through p levels of phase and mixer unitaries.

    Single precision is used above 22 qubits to halve the footprint; more
    than 30 qubits raise ``TooLarge`` whatever ``cap_qubits`` says.
    """
    state, _ = _simulate(graph, params, cap_qubits)
    return Statevector(qubit_ids=tuple(range(graph.n)), amplitudes=state)


def expectation(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    cap_qubits: int = 22,
) -> EnergySummary:
    """Exact circuit expectations of the adjacency energy and the cost."""
    state, energies = _simulate(graph, params, cap_qubits)
    probs = np.abs(state) ** 2
    mean_adj = graph.constant + float(probs @ energies)
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )


def z_expectations(state: Statevector) -> np.ndarray:
    """<Z_q> for each qubit of the state (order follows qubit_ids)."""
    probs = np.abs(state.amplitudes) ** 2
    k = len(state.qubit_ids)
    basis = np.arange(1 << k, dtype=np.int64)
    out = np.empty(k, dtype=np.float64)
    for t in range(k):
        spins = 1 - 2 * ((basis >> t) & 1)
        out[t] = float(probs @ spins)
    return out


def _sample_indices(
    state: Statevector, shots: int, rng: np.random.Generator | int
) -> np.ndarray:
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    return rng.choice(probs.size, size=shots, p=probs)


def sample(
    state: Statevector, shots: int, rng: np.random.Generator | int
) -> np.ndarray:
    """Measure the state ``shots`` times; rows are +-1 spin configurations.

    Column t corresponds to ``state.qubit_ids[t]``.
    """
    indices = _sample_indices(state, shots, rng)
    k = len(state.qubit_ids)
    bits = (indices[:, None] >> np.arange(k)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def color_change_vector(instance: BpspInstance) -> np.ndarray:
    """Cost of every first-color assignment, indexed by the basis index."""
    graph = to_ising(instance)
    energies = pair_energy_vector(graph)
    return (energies + graph.constant + 2 * instance.n - 1) // 2


def p_alpha(instance: BpspInstance, state: Statevector, alpha: float) -> float:
    """Probability mass on assignments with cost <= alpha * optimum.

    The threshold is inclusive; the optimum is the least cost over all
    assignments.
    """
    if state.qubit_ids != tuple(range(instance.n)):
        raise ValueError("state must cover qubits 0..n-1 of the instance")
    costs = color_change_vector(instance)
    opt = costs.min()
    probs = np.abs(state.amplitudes) ** 2
    # renormalize so a mask covering every outcome yields exactly 1.0
    return float(probs[costs <= alpha * opt].sum() / probs.sum())


def delta_c_metric(qpu_mean: float, sim_mean: float, random_mean: float) -> float:
    """(qpu - sim) / (random - sim): 0 at the simulator, 1 at random guessing."""
    denom = random_mean - sim_mean
    if denom == 0:
        raise DegenerateBaseline("random baseline equals the simulated mean")
    return (qpu_mean - sim_mean) / denom
