"""Per-coupling lightcone evaluation of QAOA expectations.

For depth p, <Z_i Z_j> depends only on the circuit restricted to the
graph-distance-p ball around the coupling (i, j): all mixers on the ball,
all phase gates with both endpoints inside it.  Summing J_ij <Z_i Z_j> over
couplings plus the constant gives the exact mean adjacency energy without
ever building the full statevector, so instance size is limited by coupling
degrees rather than qubit count.

One breadth-first search per coupling records each qubit's distance from
the edge, up to p: distance <= p is the support, checked against the cap
(``SUPPORT_CAP`` unless given, clipped at the dense simulator's 30 qubits
whatever the caller asks), distance < p the kept ball, distance exactly p
its boundary.

Two exact evaluation engines sit behind the contract:

* ``statevector``: the dense simulator, ``simulate_state``, run on the
  support relabelled to 0..k-1.
* ``traced``: a density matrix on the kept ball, grown qubit by qubit and
  shrunk level by level.  Z_i Z_j conjugated back through levels p..l+1
  acts on the qubits within distance p - l, so a level-l mixer farther out
  commutes with it and cancels: a qubit at distance d meets its last mixer
  at level p - d.  Past it, only diagonal phases touch the qubit and only
  its diagonal is ever read, so its row and column axes merge, halving the
  tensor.  Boundary qubits, never mixed, become cosine damping factors.
  Shell qubits (distance p - 1) meet their last mixer at level 1, so they
  enter one at a time after the core and merge at once: the 4^|kept|
  matrix is never built.  At p=2, n=300 an 8-kept-qubit loopy lightcone
  peaks at a median 114 KiB (tracemalloc), against 2.3 MiB for the matrix.
  Exact, and exponentially cheaper whenever the boundary dominates the
  support (the generic case on the near-4-regular graphs of large random
  words).

The automatic choice runs the traced engine when 4^|kept|, an upper bound
on its tensor, is below 2^|support|, and a traced run asked for by name
needs 4^|kept| <= 2^cap, so under the clipped cap neither engine holds
more than 2^30 entries.

``lightcone_expectation`` memoizes every lightcone for one call, storing
sign(J_ij) <Z_i Z_j>: only couplings with an endpoint in the kept ball act
(one between two boundary qubits cancels), and a gauge (flipped spins) with
g_i g_j = sign(J_ij) keeps the value.  Each support qubit gets a code: a
boundary qubit its number of kept neighbours, a kept one the sorted
|J|-labelled codes of its farther neighbours, with same-level and upward
couplings marked.  On a tree (|support| - 1 acting couplings) the codes of
i and j are AHU encodings of its two halves, and together they are the
key.  Any other lightcone is keyed by its acting couplings, relabelled in
breadth-first order from the coupling (children by |J|, code, then qubit)
and gauge-fixed along that search tree: the sorted
(label_u, label_v, J_uv g_u g_v).  Either key holds every coupling that acts
on <Z_i Z_j> up to renaming and gauge, so equal keys give equal values up
to rounding (the statevector engine also runs the cancelling boundary
couplings); a tie-break can only miss a hit.  On the p=2 benchmark's four
n=300 words (seed 102) the engine runs for 193 of 2381 couplings, against
865 when only trees were memoized.  Trees stop at their codes: the
relabelled key finds the same classes there, but used for every lightcone
it made the p=1, n=1000 benchmark 87 % slower.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..ising import CouplingGraph
from .params import PHASE_SCALE, QaoaParams
from .statevector import _MAX_QUBITS, EnergySummary, simulate_state

#: Default qubit cap on a lightcone's support.
SUPPORT_CAP = 26


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
    """<Z_i Z_j> from a density matrix on the kept ball, grown qubit by qubit.

    Kept qubits enter core first, each with its level-1 phases to those in.
    At its last mixer R a qubit's row and column axes contract into one,
    K[a, b, c] = R[a, b] conj(R[a, c]); a level later it is summed out.  A
    shell qubit does so on entering, once all it shares a coupling or a
    boundary qubit with are in.  Boundary qubits v damp entry (z, w) by
    cos(phi_v(z) - phi_v(w)), phi_v = gamma_1 * sum of J_uv s_u over kept
    neighbours u, once all are in: for a lone u, cos(2 gamma_1 J_uv) where
    u's bits differ.
    """
    p = params.p
    kept = sorted((q for q in dist if dist[q] < p), key=lambda q: (dist[q] == p - 1, q))
    axes, rho = [], np.ones(())  # axes: (q, 0) row or diagonal, (q, 1) column
    signs = np.array([1.0, -1.0])

    def spin(q, side=0):
        pos = axes.index((q, side) if (q, side) in axes else (q, 0))
        return signs.reshape([2 if t == pos else 1 for t in range(len(axes))])

    def last_mixer(q, beta):
        nonlocal rho, axes
        c, s = np.cos(beta), np.sin(beta)
        pos = axes.index((q, 0)), axes.index((q, 1))
        (r00, r01), (r10, r11) = np.moveaxis(rho, pos, (0, 1))
        h = c * c * (r00 - r11) + (1j * c * s * damp[q]) * (r01 - r10)
        rho = np.stack([r11 + h, r00 - h])
        axes = [(q, 0)] + [x for x in axes if x[0] != q]

    gamma1, beta1 = params.angles[0][0] * PHASE_SCALE, params.angles[0][1]
    fringe = {}
    for u in kept:
        for v, val in adjacency[u]:
            if dist[v] == p:
                fringe.setdefault(v, {})[u] = val
    damp = dict.fromkeys(kept, 1.0)
    waits = {q: {q, *(u for u, _ in adjacency[q] if dist[u] < p)}
             for q in kept if dist[q] == p - 1}
    for nbrs in fringe.values():
        for u in nbrs:  # a boundary qubit's kept neighbours are all in the shell
            waits[u].update(nbrs)
            if len(nbrs) == 1:
                damp[u] *= np.cos(2 * gamma1 * nbrs[u])
    for k, q in enumerate(kept):
        present = set(kept[:k + 1])
        axes += [(q, 0), (q, 1)]
        rho = rho[..., None, None] * np.exp(-1j * sum(
            ((gamma1 * val) * (spin(u) * spin(q) - spin(u, 1) * spin(q, 1))
             for u, val in adjacency[q] if u in present), np.zeros((2, 2))
        ))
        for nbrs in fringe.values():
            if len(nbrs) > 1 and q in nbrs and present.issuperset(nbrs):
                rho *= np.cos(sum(gamma1 * val * (spin(u) - spin(u, 1))
                                  for u, val in nbrs.items()))
        for u in [u for u in waits if waits[u] <= present]:
            last_mixer(u, beta1)
            del waits[u]
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
            if dist[q] == last and t > 1:
                last_mixer(q, beta)
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
    support_cap: int = SUPPORT_CAP,
    engine: str = "auto",
    _adjacency=None,
    _memo=None,
) -> float:
    """<Z_i Z_j> of one coupling under the restricted circuit; with the
    automatic engine, reused from ``_memo`` for an equal lightcone key."""
    adjacency = graph.adjacency_lists() if _adjacency is None else _adjacency
    p = params.p
    dist = _distances(adjacency, edge, p)
    size, cap = len(dist), min(support_cap, _MAX_QUBITS)
    if size > cap:
        raise SupportTooLarge(f"support of {edge} has {size} qubits, cap is {cap}")
    if _memo is None or engine != "auto":
        kept = sum(d < p for d in dist.values()) if engine == "traced" else 0
        if 4**kept > 2**cap:
            raise SupportTooLarge(f"traced {edge} plans 4^{kept} entries, cap is 2^{cap}")
        return _run_engine(adjacency, edge, dist, params, engine)
    key = _memo_key(adjacency, edge, dist, p)
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


def _memo_key(adjacency, edge, dist, p):
    """Memo key of a lightcone: equal keys give equal sign(J_ij) <Z_i Z_j>."""
    kept = [u for u, d in dist.items() if d < p]
    tree = sum(dist[v] == p or u < v for u in kept for v, _ in adjacency[u]) == len(dist) - 1
    if tree:  # every boundary qubit has one kept neighbour
        code = dict.fromkeys(dist, "[1]")
    else:
        links = Counter(v for u in kept for v, _ in adjacency[u])
        code = {v: f"[{n}]" for v, n in links.items()}
    for u in reversed(kept):
        d = dist[u]
        code[u] = "(" + "".join(sorted(
            f"{abs(val)}{'=' if dist[v] == d else '^' if dist[v] < d else code[v]}"
            for v, val in adjacency[u]
        )) + ")"
    i, j = edge
    if tree:  # AHU encodings of the two halves, each holding |J_ij| as its "=" entry
        return tuple(sorted((code[i], code[j])))
    order = sorted(edge, key=lambda q: (code[q], q))
    label = {q: t for t, q in enumerate(order)}
    gauge = {order[0]: 1, order[1]: 1 if dict(adjacency[i])[j] > 0 else -1}
    for u in order:
        if dist[u] == p:
            break
        for v, val in sorted((x for x in adjacency[u] if x[0] not in label),
                             key=lambda x: (abs(x[1]), code[x[0]], x[0])):
            label[v], gauge[v] = len(order), gauge[u] * (1 if val > 0 else -1)
            order.append(v)
    return tuple(sorted((label[u], label[v], val * gauge[u] * gauge[v])
                        for u in kept for v, val in adjacency[u] if label[u] < label[v]))


def lightcone_expectation(
    graph: CouplingGraph,
    params: QaoaParams,
    *,
    support_cap: int = SUPPORT_CAP,
) -> EnergySummary:
    """Exact circuit expectations assembled coupling by coupling.

    Couplings are visited in sorted order with a sequential reduction, so
    results are bitwise reproducible.  The engine runs once per lightcone
    up to relabelling and gauge (see the module docstring).
    """
    memo = {}
    mean_adj = float(graph.constant)
    for (a, b) in sorted(graph.couplings):
        corr = edge_correlation(graph, (a, b), params, support_cap=support_cap, _memo=memo)
        mean_adj += graph.couplings[(a, b)] * corr
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )
