"""Dense statevector simulation of the QAOA circuit and derived estimators.

Basis convention: for a state over ``qubit_ids``, bit t of a basis index is
the first color of ``qubit_ids[t]`` (0 -> spin +1, 1 -> spin -1), so index
bits, spins, and colorings convert without reordering.

Spin-flip symmetry: a ``CouplingGraph`` holds ZZ couplings and no fields, so
X^n (every bit of the index complemented) commutes with each phase, with
each mixer and with |+...+>.  Every amplitude therefore equals that of the
complemented index, psi(~x) = psi(x), at every level.  ``_simulate``
evolves only the half whose top bit is 0: the mixers on the lower bits act
within it, and the top-bit mixer pairs psi(0, y) with psi(1, y) = psi(0, ~y),
the half read backwards.  The same floating-point operations as on the full
state give the same amplitudes, bit for bit, in half the work.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ..core import BpspInstance, Coloring, TooLarge
from ..ising import CouplingGraph, to_ising
from .params import PHASE_SCALE, QaoaParams


# Whatever the cap.  Per amplitude the dense simulator holds the complex128
# state, a scratch buffer half as large (only half the state is evolved) and
# the int64 energies: 16 + 8 + 8 = 32 bytes.  expectation's readout then holds
# the state, the energies and the float64 probabilities: 16 + 8 + 8 = 32 bytes,
# so 32 GiB at 30 qubits.
# simulate_native holds 16 GiB of amplitudes and a scratch buffer as large.
_MAX_QUBITS = 30

# Sampling draws one float64 uniform and one int64 index per shot: 16 bytes, so
# 16 GiB at 2^30 shots (``sample`` adds 9 bytes per shot and qubit for its bits).
_MAX_SHOTS = 1 << 30


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
    """sum_ij J_ij s_i s_j per basis index, as an integer vector.

    Built by doubling over qubits: while the first 2^k entries hold the
    energy of qubits below k, qubit k (spin +1 there, -1 on the next 2^k)
    adds +h and -h, h = sum_{i<k} J_ik s_i.  h is built in the upper half by
    the same doubling over the bits i of its couplings, tiled across the
    bits between them.
    """
    energies = np.zeros(1 << graph.n, dtype=np.int64)
    for k, neighbours in enumerate(graph.adjacency_lists()):
        lower, field = energies[: 1 << k], energies[1 << k : 2 << k]
        below = sorted((i, value) for i, value in neighbours if i < k)
        if not below:
            field[:] = lower
            continue
        filled = 0  # field[:filled] holds h over the bits up to the last i; beyond, zeros
        for i, value in below:
            if filled:
                field[: 1 << i].reshape(-1, filled)[1:] = field[:filled]
            np.subtract(field[: 1 << i], value, out=field[1 << i : 2 << i])
            field[: 1 << i] += value
            filled = 2 << i
        field.reshape(-1, filled)[1:] = field[:filled]
        lower += field
        field *= -2
        field += lower
    return energies


def _rotate_x(state: np.ndarray, theta: float, bits: tuple, scratch: np.ndarray,
              phi: float = 0.0) -> None:
    """In place exp(-i theta P) = cos(theta) I - i sin(theta) P on one or two index bits S.

    P is X_S, or on one bit cos(phi) X + sin(phi) Y.  X_S psi is psi with the
    bits of S reversed, a view formed without a copy; ``scratch`` (state-sized,
    same dtype) receives it scaled, its bit-0 half by e^{-i phi} and its bit-1
    half by e^{+i phi}.
    """
    lo = min(bits)
    dims, flip = (2, 1 << lo), (slice(None), slice(None, None, -1))
    if len(bits) == 2:
        dims, flip = (2, 1 << (max(bits) - lo - 1)) + dims, flip + flip
    t = state.reshape(-1, *dims)
    flipped = scratch.reshape(t.shape)
    sin = complex(-1j * np.sin(theta))
    if phi:
        np.multiply(t[:, 1], sin * cmath.exp(-1j * phi), out=flipped[:, 0])
        np.multiply(t[:, 0], sin * cmath.exp(1j * phi), out=flipped[:, 1])
    else:
        np.multiply(t[flip], sin, out=flipped)
    t *= float(np.cos(theta))
    t += flipped


def _phase_z(state: np.ndarray, theta: float, bit: int) -> None:
    """In place exp(-i theta Z) on one index bit: its halves take e^{-i theta}, e^{i theta}."""
    halves = state.reshape(-1, 2, 1 << bit)
    halves *= np.array([[cmath.exp(-1j * theta)], [cmath.exp(1j * theta)]], dtype=state.dtype)


def _simulate(
    graph: CouplingGraph, params: QaoaParams, cap_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes after p levels from |+...+>, and the energy vector used.

    Only the half whose top bit is 0 is evolved (module docstring); the
    other half is its mirror, written at the end.
    """
    n = graph.n
    cap = min(cap_qubits, _MAX_QUBITS)
    if n > cap:
        raise TooLarge(f"statevector capped at {cap} qubits, got {n}")
    energies = pair_energy_vector(graph)
    # |energy| <= reach, so each level's phase is a table of the 2 reach + 1
    # values, gathered by energy + reach; the shift is made in place, and
    # undone, so the index costs no memory of its own.  take buffers its
    # output unless mode is "clip" (the indices are in range anyway).
    reach = sum(abs(value) for value in graph.values.tolist())
    levels = np.arange(-reach, reach + 1, dtype=np.int64)
    energies += reach
    state = np.empty(1 << n, dtype=np.complex128)
    half = state[: max(1, len(state) >> 1)]
    half.fill(1 / np.sqrt(1 << n))
    scratch = np.empty_like(half)
    for gamma, beta in params.angles:
        table = np.exp((-1j * gamma * PHASE_SCALE) * levels)
        np.take(table, energies[: len(half)], out=scratch, mode="clip")
        # state first: numpy's complex multiply is not bitwise commutative
        np.multiply(half, scratch, out=half)
        if not n:
            continue
        for bit in range(n - 1):
            _rotate_x(half, beta, (bit,), scratch)
        # the top bit: psi(1, y) = psi(0, ~y), the half read backwards
        np.multiply(half[::-1], complex(-1j * np.sin(beta)), out=scratch)
        half *= float(np.cos(beta))
        half += scratch
    state[len(half):] = half[::-1]
    energies -= reach
    return state, energies


def simulate_state(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    cap_qubits: int = 22,
) -> Statevector:
    """Evolve |+...+> through p levels of phase and mixer unitaries.

    In complex128 (footprint beside ``_MAX_QUBITS``); more than 30 qubits
    raise ``TooLarge`` whatever ``cap_qubits`` says.
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
    mean_adj = graph.constant + float(np.einsum("i,i", probs, energies))
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )


def z_expectations(state: Statevector) -> np.ndarray:
    """<Z_q> for each qubit of the state (order follows qubit_ids)."""
    probs = np.abs(state.amplitudes) ** 2
    out = np.empty(len(state.qubit_ids), dtype=np.float64)
    for t in range(len(out)):
        pairs = probs.reshape(-1, 2, 1 << t)
        out[t] = (pairs[:, 0, :] - pairs[:, 1, :]).sum()
    return out


def _sample_indices(
    state: Statevector, shots: int, rng: np.random.Generator | int
) -> np.ndarray:
    if shots > _MAX_SHOTS:
        raise TooLarge(f"sampling capped at {_MAX_SHOTS} shots, got {shots}")
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
