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
* ``traced``: a density matrix on the kept ball, shrunk level by level.
  Z_i Z_j conjugated back through levels p..l+1 acts on the qubits within
  distance p - l, so a level-l mixer farther out commutes with it and
  cancels: a qubit at distance d meets its last mixer at level p - d.
  Past it, only diagonal phases touch the qubit and only its diagonal is
  ever read, so its row and column axes merge, halving the tensor.
  Boundary qubits, never mixed, become cosine damping factors.  Exact, and
  exponentially cheaper whenever the boundary dominates the support (the
  generic case on the near-4-regular graphs of large random words).

The automatic choice takes the engine with the smaller state: 4^|kept|
versus 2^|support|.

``lightcone_expectation`` memoizes tree lightcones for the length of one
call.  Only couplings with an endpoint in the kept ball act on <Z_i Z_j>
(one between two boundary qubits cancels), so the lightcone is a tree when
they number |support| - 1.  On a tree a gauge flip makes every coupling
positive and leaves J_ij <Z_i Z_j> unchanged, so sign(J_ij) <Z_i Z_j> is
fixed by |J_ij| and the |J|-labelled shapes of the two halves rooted at i
and at j (AHU encodings): that is the key, and the stored value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ising import CouplingGraph
from .params import PHASE_SCALE, QaoaParams
from .statevector import EnergySummary, simulate_state


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


def _corr_statevector(adjacency, edge, support, params) -> float:
    """<Z_i Z_j> from the dense simulator on the support, in 40 bytes per amplitude."""
    index = {q: t for t, q in enumerate(sorted(support))}
    k = len(index)
    included = _included_edges(adjacency, index)
    local = {(index[a], index[b]): val for (a, b), val in included.items()}
    graph = CouplingGraph(n=k, couplings=local, constant=0)
    state = simulate_state(graph, params, cap_qubits=k)
    probs = np.abs(state.amplitudes) ** 2
    # s_i s_j: -1 on the two quarters of the index where bits i and j differ
    lo, hi = sorted(index[q] for q in edge)
    spins = np.ones(1 << k)
    quarters = spins.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    quarters[:, 0, :, 1] = quarters[:, 1, :, 0] = -1
    return float(probs @ spins)


def _corr_traced(adjacency, dist, params) -> float:
    """<Z_i Z_j> from a density matrix on the kept ball, shrunk level by level.

    At its last mixer R a qubit's row and column axes contract into one,
    K[a, b, c] = R[a, b] conj(R[a, c]); a level later it is summed out.
    Boundary qubits v, summed out after the first phase, damp entry (z, w) by
    cos(phi_v(z) - phi_v(w)), phi_v = gamma_1 * sum of J_uv s_u over kept
    neighbours u: for a lone u, cos(2 gamma_1 J_uv) where u's bits differ.
    """
    p = params.p
    # Farthest first: those are contracted first, while the tensor is largest.
    kept = sorted((q for q in dist if dist[q] < p), key=lambda q: (-dist[q], q))
    axes = [(q, 0) for q in kept]  # (q, 0): row or diagonal axis, (q, 1): column
    signs = np.array([1.0, -1.0])

    def spin(q, side=0):
        pos = axes.index((q, side) if (q, side) in axes else (q, 0))
        return signs.reshape([2 if t == pos else 1 for t in range(len(axes))])

    gamma1 = params.angles[0][0] * PHASE_SCALE
    angle, fringe = np.zeros((2,) * len(kept)), {}
    for u in kept:
        for v, val in adjacency[u]:
            if dist[v] == p:
                fringe.setdefault(v, []).append((u, val))
            elif u < v:
                angle = angle + (gamma1 * val) * spin(u) * spin(v)
    rho = np.multiply.outer(np.exp(-1j * angle), np.exp(1j * angle))
    axes += [(q, 1) for q in kept]
    damp = dict.fromkeys(kept, 1.0)
    for nbrs in fringe.values():
        if len(nbrs) == 1:
            damp[nbrs[0][0]] *= np.cos(2 * gamma1 * nbrs[0][1])
        else:
            rho *= np.cos(sum(gamma1 * val * (spin(u) - spin(u, 1)) for u, val in nbrs))
    for t, (gamma, beta) in enumerate(params.angles, start=1):
        last = p - t  # distance of the qubits mixed for the last time
        if t > 1:
            # Between two diagonal qubits a phase cancels.
            rho = rho * np.exp(-1j * sum(
                (gamma * PHASE_SCALE * val) * (spin(u) * spin(v) - spin(u, 1) * spin(v, 1))
                for u in kept if dist[u] <= last
                for v, val in adjacency[u] if dist[v] > last or u < v
            ))
            done = [x for x in axes if dist[x[0]] == last + 1]
            rho = rho.sum(axis=tuple(axes.index(x) for x in done))
            axes = [x for x in axes if x not in done]
        c, s = np.cos(beta), np.sin(beta)
        for q in kept:
            if dist[q] == last:
                pos = axes.index((q, 0)), axes.index((q, 1))
                (r00, r01), (r10, r11) = np.moveaxis(rho, pos, (0, 1))
                h = c * c * (r00 - r11) + (1j * c * s * damp[q]) * (r01 - r10)
                rho = np.stack([r11 + h, r00 - h])
                axes = [(q, 0)] + [x for x in axes if x[0] != q]
            elif dist[q] < last:
                for x, r in (((q, 0), -1j * s), ((q, 1), 1j * s)):
                    r0, r1 = np.moveaxis(rho, axes.index(x), 0)
                    rho = np.stack([c * r0 + r * r1, r * r0 + c * r1])
                    axes = [x] + [y for y in axes if y != x]
    return float(np.real(signs @ rho @ signs)) / (1 << len(kept))


def edge_correlation(
    graph: CouplingGraph,
    edge: tuple,
    params: QaoaParams,
    *,
    support_cap: int = 26,
    engine: str = "auto",
    _adjacency=None,
    _memo=None,
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
    key = None if _memo is None or engine != "auto" else _tree_key(adjacency, edge, dist, p)
    if key is None:
        return _run_engine(adjacency, edge, dist, params, engine)
    sign = 1.0 if graph.couplings[edge] > 0 else -1.0
    if key not in _memo:
        _memo[key] = sign * _run_engine(adjacency, edge, dist, params, engine)
    return sign * _memo[key]


def _run_engine(adjacency, edge, dist, params, engine) -> float:
    """<Z_i Z_j> from the named engine, or the automatic choice."""
    if engine == "auto":
        kept = sum(d < params.p for d in dist.values())
        engine = "traced" if 2 * kept < len(dist) else "statevector"
    if engine == "traced":
        return _corr_traced(adjacency, dist, params)
    if engine == "statevector":
        return _corr_statevector(adjacency, edge, dist, params)
    raise ValueError(f"unknown engine {engine!r}")


def _tree_key(adjacency, edge, dist, p):
    """Memo key of a tree lightcone, or None if it has a cycle."""
    acting = sum(dist[v] == p or u < v
                 for u in dist if dist[u] < p for v, _ in adjacency[u])
    if acting != len(dist) - 1:
        return None

    def shape(u, parent):
        if dist[u] == p:
            return "()"
        return "(" + "".join(sorted(
            f"{abs(val)}{shape(v, u)}" for v, val in adjacency[u] if v != parent
        )) + ")"

    i, j = edge
    return (abs(dict(adjacency[i])[j]), *sorted((shape(i, j), shape(j, i))))


def lightcone_expectation(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    support_cap: int = 26,
) -> EnergySummary:
    """Exact circuit expectations assembled coupling by coupling.

    Couplings are visited in sorted order with a sequential reduction, so
    results are bitwise reproducible.
    """
    adjacency, memo = graph.adjacency_lists(), {}
    mean_adj = float(graph.constant)
    for (a, b) in sorted(graph.couplings):
        corr = edge_correlation(
            graph,
            (a, b),
            params,
            support_cap=support_cap,
            _adjacency=adjacency,
            _memo=memo,
        )
        mean_adj += graph.couplings[(a, b)] * corr
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )
