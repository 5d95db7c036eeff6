"""Per-coupling lightcone evaluation of QAOA expectations.

For depth p, <Z_i Z_j> depends only on the circuit restricted to the
graph-distance-p ball around the coupling (i, j): all mixers on the ball,
all phase gates with both endpoints inside it.  Summing J_ij <Z_i Z_j> over
couplings plus the constant gives the exact mean adjacency energy without
ever building the full statevector, so instance size is limited by coupling
degrees rather than qubit count.

One breadth-first search per coupling records each qubit's distance from
the edge, up to p: distance <= p is the support (checked against the cap),
distance < p the kept ball, distance exactly p its boundary.

Two exact evaluation engines sit behind the contract:

* ``statevector``: the dense simulator, ``simulate_state``, run on the
  support relabelled to 0..k-1.
* ``traced``: boundary qubits interact only through first-level phase
  gates, so tracing them out turns the initial projector on the kept ball
  into entrywise cosine damping factors; the remaining levels evolve a
  density matrix on that smaller ball.  Algebraically identical to the
  statevector result, and exponentially cheaper whenever the support is
  dominated by its boundary (the generic case on the near-4-regular graphs
  of large random words).

The automatic choice takes the engine with the smaller state: 4^|kept|
versus 2^|support|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import random_instance
from ..ising import CouplingGraph, to_ising
from .params import PHASE_SCALE, PHASE_SCALE_UNHALVED, QaoaParams, tree_params
from .statevector import EnergySummary, _apply_1q, _x_rotation, simulate_state


class SupportTooLarge(ValueError):
    """A lightcone support exceeds the qubit cap; rejected, not approximated."""


@dataclass(frozen=True)
class LightconeTask:
    """One coupling's restricted circuit: its support and interior couplings."""

    edge: tuple
    support: frozenset
    included_edges: tuple


def _distances(adjacency, edge, radius: int) -> dict:
    """Graph distance from the edge of every qubit within ``radius`` of it."""
    dist = dict.fromkeys(edge, 0)
    frontier = list(edge)
    for d in range(1, radius + 1):
        grown = []
        for u in frontier:
            for v, _ in adjacency[u]:
                if v not in dist:
                    dist[v] = d
                    grown.append(v)
        frontier = grown
    return dist


def _included_edges(adj, support) -> dict:
    """Couplings with both endpoints in the support, in sorted order."""
    return dict(sorted(
        ((u, v), J) for u in support for v, J in adj[u] if u < v and v in support
    ))


def lightcone_support(graph: CouplingGraph, edge: tuple, p: int) -> LightconeTask:
    """Support (radius-p ball around the edge) and the couplings inside it."""
    adjacency = graph.adjacency_lists()
    support = _distances(adjacency, edge, p)
    included = tuple(_included_edges(adjacency, support))
    return LightconeTask(tuple(edge), frozenset(support), included)


def _corr_statevector(adjacency, edge, support, params, phase_scale) -> float:
    """<Z_i Z_j> from the dense simulator on the support."""
    index = {q: t for t, q in enumerate(sorted(support))}
    k = len(index)
    included = _included_edges(adjacency, index)
    local = {(index[a], index[b]): val for (a, b), val in included.items()}
    graph = CouplingGraph(n=k, couplings=local, constant=0)
    state = simulate_state(graph, params, phase_scale=phase_scale, cap_qubits=k)
    probs = np.abs(state.amplitudes) ** 2
    basis = np.arange(1 << k, dtype=np.int64)
    i, j = edge
    spins = (1 - 2 * ((basis >> index[i]) & 1)) * (1 - 2 * ((basis >> index[j]) & 1))
    return float(probs @ spins)


def _corr_traced(adjacency, edge, kept, params, phase_scale) -> float:
    """<Z_i Z_j> from a density matrix on the sorted kept ball ``kept``.

    Boundary qubits (distance exactly p) carry only first-level phase gates,
    so averaging over their computational basis turns each into the factor
    cos(phi_v(z) - phi_v(w)) on the density matrix entry (z, w), with
    phi_v(z) = gamma_1 * sum over kept neighbors u of theta_uv * s_u(z).
    """
    i, j = edge
    index = {q: t for t, q in enumerate(kept)}
    k = len(kept)
    basis = np.arange(1 << k, dtype=np.int64)
    spin = {q: (1 - 2 * ((basis >> index[q]) & 1)).astype(np.float64) for q in kept}

    # ``kept`` is sorted, so u < v picks each interior coupling at its first visit.
    interior = []
    boundary: dict = {}
    for u in kept:
        for v, val in adjacency[u]:
            if v not in index:
                boundary.setdefault(v, []).append((u, val))
            elif u < v:
                interior.append((u, v, val))

    def phase_vector(gamma: float) -> np.ndarray:
        phi = np.zeros(1 << k)
        for u, v, val in interior:
            phi += (gamma * phase_scale * val) * spin[u] * spin[v]
        return phi

    gamma1, beta1 = params.angles[0]
    damp = np.ones((1 << k, 1 << k))
    for v in sorted(boundary):
        phi_v = np.zeros(1 << k)
        for u, val in boundary[v]:
            phi_v += (gamma1 * phase_scale * val) * spin[u]
        damp *= np.cos(phi_v[:, None] - phi_v[None, :])
    amp = np.exp(-1j * phase_vector(gamma1))
    rho = (amp[:, None] * amp.conj()[None, :]) * damp
    rho /= 1 << k

    def mix(beta: float) -> None:
        flat = rho.reshape(-1)
        # Row index bits live at k..2k-1, column bits at 0..k-1; the column
        # side takes the conjugated rotation.
        row, col = _x_rotation(beta), _x_rotation(-beta)
        for t in range(k):
            _apply_1q(flat, row, k + t)
        for t in range(k):
            _apply_1q(flat, col, t)

    mix(beta1)
    for gamma, beta in params.angles[1:]:
        amp = np.exp(-1j * phase_vector(gamma))
        rho *= amp[:, None]
        rho *= amp.conj()[None, :]
        mix(beta)
    zz = spin[i] * spin[j]
    return float(np.real(np.einsum("zz,z->", rho, zz)))


def edge_correlation(
    graph: CouplingGraph,
    edge: tuple,
    params: QaoaParams,
    *,
    phase_scale: float = PHASE_SCALE,
    support_cap: int = 26,
    engine: str = "auto",
    _adjacency=None,
) -> float:
    """<Z_i Z_j> of one coupling under the restricted circuit."""
    adjacency = graph.adjacency_lists() if _adjacency is None else _adjacency
    p = params.p
    dist = _distances(adjacency, edge, p)
    size = len(dist)
    if size > support_cap:
        raise SupportTooLarge(
            f"support of {edge} has {size} qubits, cap is {support_cap}"
        )
    kept = sorted(q for q, d in dist.items() if d < p)
    if engine == "auto":
        engine = "traced" if 2 * len(kept) < size else "statevector"
    if engine == "traced":
        return _corr_traced(adjacency, edge, kept, params, phase_scale)
    if engine == "statevector":
        return _corr_statevector(adjacency, edge, dist, params, phase_scale)
    raise ValueError(f"unknown engine {engine!r}")


def lightcone_expectation(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    phase_scale: float = PHASE_SCALE,
    support_cap: int = 26,
    engine: str = "auto",
) -> EnergySummary:
    """Exact circuit expectations assembled coupling by coupling.

    Couplings are visited in sorted order with a sequential reduction, so
    results are bitwise reproducible.
    """
    adjacency = graph.adjacency_lists()
    mean_adj = float(graph.constant)
    for (a, b) in sorted(graph.couplings):
        corr = edge_correlation(
            graph,
            (a, b),
            params,
            phase_scale=phase_scale,
            support_cap=support_cap,
            engine=engine,
            _adjacency=adjacency,
        )
        mean_adj += graph.couplings[(a, b)] * corr
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )


@dataclass(frozen=True)
class CalibrationReport:
    mean_dc_per_car_halved: float
    mean_dc_per_car_unhalved: float
    chosen_scale: float


def calibrate_phase_convention(
    n: int = 1000, count: int = 20, seed: int = 2718
) -> CalibrationReport:
    """One-time selection of the phase convention.

    Runs the fixed p=1 schedule on random words under both conventions and
    picks the one whose mean cost per car comes closest to 0.675, the known
    large-size value for this schedule.  The winner (0.5) is frozen as
    ``PHASE_SCALE``; this helper documents and reproduces the choice.
    """
    rng = np.random.default_rng(seed)
    params = tree_params(1)
    totals = {PHASE_SCALE: 0.0, PHASE_SCALE_UNHALVED: 0.0}
    for _ in range(count):
        graph = to_ising(random_instance(n, rng))
        for scale in totals:
            summary = lightcone_expectation(graph, params, phase_scale=scale)
            totals[scale] += summary.mean_color_changes / n
    halved = totals[PHASE_SCALE] / count
    unhalved = totals[PHASE_SCALE_UNHALVED] / count
    chosen = (
        PHASE_SCALE
        if abs(halved - 0.675) <= abs(unhalved - 0.675)
        else PHASE_SCALE_UNHALVED
    )
    return CalibrationReport(
        mean_dc_per_car_halved=halved,
        mean_dc_per_car_unhalved=unhalved,
        chosen_scale=chosen,
    )
