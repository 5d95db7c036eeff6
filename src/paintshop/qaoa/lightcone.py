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

The automatic choice compares the axes of the traced tensor with the
|support| of the dense state.  A core qubit (distance < p - 1) holds a row
and a column axis.  At p=2 the core is i and j, and a shell qubit
(distance p - 1) holds one axis, merged as soon as it enters, so the
traced engine runs when 2|core| + |shell| < |support|: on the n=16 words
of ``fig2`` that sends 6 of 1727 engine runs dense.  At p >= 3 a shell
qubit waits for its core neighbours before it merges; counted once, it
sent 8 lightcones of three n=20 words at p=3 to the traced engine, which
ran 7 of them 1.5 to 17 times slower than the dense one.  So there it
counts twice: 2|kept| < |support|.  Either way the choice also needs
4^|kept|, an upper bound on the traced tensor, to be at most 2^cap, as a
traced run asked for by name does, so under the clipped cap neither
engine holds more than 2^30 entries.

At p >= 2 ``lightcone_expectation`` keys no tree lightcone (|support| - 1
acting couplings: only those with an endpoint in the kept ball act, one
between two boundary qubits cancels): its first coupling within the cap runs
``history.GraphPass``, messages over every directed coupling, which give each
tree's value.  Any other lightcone is memoized for the call, storing
sign(J_ij) <Z_i Z_j>, which a gauge (flipped spins) with g_i g_j = sign(J_ij)
keeps.  Each support qubit gets a code: a boundary qubit its number of kept
neighbours, a kept one the sorted |J|-labelled codes of its farther
neighbours, with same-level and upward couplings marked.  The key is the
acting couplings relabelled in breadth-first order from the coupling
(children by |J|, code, then qubit) and gauge-fixed along that search tree,
sorted (label_u, label_v, J_uv g_u g_v); equal keys give equal values up to
rounding.  At p=2 a miss with one or two cuts (acting couplings off the search
tree) is summed on its skeleton.  At p=3 those sums took 2.1-5.0 ms and 2.8-8.9
MiB (tracemalloc) on 6- to 8-qubit lightcones, the engine 0.4-0.5 ms, so the
engine runs there, as for three or more cuts: 8 times on the four n=300 p=2
benchmark words (seed 102), against 193 before, 1544 of 2381 being trees.

That is for p >= 2.  At p=1 the first call with a memo stores <Z_i Z_j> of
every coupling that fits the cap, from ``_closed_form``: one vectorized pass
over the graph's arrays, no key, no adjacency lists, rounding as one coupling
at a time would.  Any other coupling raises ``SupportTooLarge`` from the search.
Calls without a memo or naming an engine still run one, so the tests hold the
closed form to both engines.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core import TooLarge
from ..ising import CouplingGraph
from .history import GraphPass
from .params import PHASE_SCALE, QaoaParams
from .statevector import _MAX_QUBITS, EnergySummary, simulate_state

#: Default qubit cap on a lightcone's support.
SUPPORT_CAP = 26


class SupportTooLarge(TooLarge):
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
    """<Z_i Z_j> from the dense simulator on the support, in 32 bytes per amplitude."""
    index = {q: t for t, q in enumerate(sorted(support))}
    k = len(index)
    included = _included_edges(adjacency, index)
    local = (((index[a], index[b]), val) for (a, b), val in included.items())
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


def _closed_form(graph, params, cap) -> dict:
    """<Z_i Z_j> at p=1 of each coupling whose support, deg_i + deg_j less
    their shared neighbours, fits the cap (arXiv:1706.02998; with triangles and
    weights, arXiv:2012.03421).  With c(x) = cos(2 x gamma PHASE_SCALE), s(x)
    likewise, J_iw = 0 off the graph and w never i or j, it is
    1/2 sin 4b s(J_ij) (prod_w c(J_iw) + prod_w c(J_jw))
    - 1/2 sin^2 2b (prod_w c(J_iw + J_jw) - prod_w c(J_iw - J_jw)).  Skipping
    j and i, not dividing by c(J_ij), keeps a zero cosine harmless; the last
    two are equal unless i and j share a neighbour."""
    ((gamma, beta),) = params.angles
    theta = 2 * gamma * PHASE_SCALE
    first, second = graph.pairs.T
    deg = graph.degrees()
    row = deg.cumsum() - deg
    width = max(0, min(int(deg.max(initial=0)), cap))  # a longer row's couplings exceed the cap
    distinct, label = np.unique(graph.values, return_inverse=True)
    # math, not numpy: np.cos and np.sin may round a last bit otherwise
    cos, sin = (np.array([f(theta * v) for v in distinct.tolist()]) for f in (math.cos, math.sin))
    # rows of neighbours in ascending order, as in adjacency_lists, so that each
    # product rounds as there; -1 and 1.0 past the last row
    order = np.concatenate((second, first)).argsort(kind="stable")
    nbr = np.append(np.concatenate((first, second))[order], -1)
    values = np.concatenate((graph.values, graph.values))[order]
    cosine = np.append(cos[np.concatenate((label, label))[order]], 1.0)
    prods, near = [], []  # near: each row's neighbours, column by column, -1 past its end
    for end, partner in ((first, second), (second, first)):
        column = np.arange(width)[:, None]
        at = np.where(column < deg[end], row[end] + column, -1)
        near.append(nbr[at])
        # 1.0 for the partner and past the row; numpy multiplies the columns in order
        prods.append(np.where(near[-1] != partner, cosine[at], 1.0).prod(axis=0))
    shared = sum(((near[0] == b) & (b >= 0)).sum(axis=0) for b in near[1])
    corr = 0.5 * math.sin(4 * beta) * sin[label] * (prods[0] + prods[1])
    fits = deg[first] + deg[second] - shared <= cap
    for k in np.flatnonzero(fits & (shared > 0)).tolist():
        i, j = int(first[k]), int(second[k])
        near_i, near_j = ({w: val for w, val in zip(nbr[row[q]:row[q] + deg[q]].tolist(),
                                                      values[row[q]:row[q] + deg[q]].tolist())
                           if w != other} for q, other in ((i, j), (j, i)))
        both = near_i.keys() | near_j.keys()
        same, opposite = (math.prod(
            math.cos(theta * (near_i.get(w, 0) + sign * near_j.get(w, 0))) for w in both
        ) for sign in (1, -1))
        corr[k] -= 0.5 * math.sin(2 * beta) ** 2 * (same - opposite)
    return dict(zip(zip(*graph.pairs[fits].T.tolist()), corr[fits].tolist()))


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
    """<Z_i Z_j> of one coupling under the restricted circuit; with ``_memo`` and
    the automatic engine, from a whole-graph table filled for this graph and
    params (p=1 closed forms, p >= 2 history messages) or memoized by key."""
    p, cap = params.p, min(support_cap, _MAX_QUBITS)
    auto = _memo is not None and engine == "auto"
    if auto:
        whole = _memo.get("graph", (None,) * 4)  # no lightcone key is a str
        if whole[0] is not graph or whole[1] is not params or whole[2] != cap:
            table = _closed_form(graph, params, cap) if p == 1 else None  # else on first use
            whole = _memo["graph"] = [graph, params, cap, table]
        corr = whole[3].get(tuple(edge)) if p == 1 else None
        if corr is not None:
            return corr
    adjacency = graph.adjacency_lists() if _adjacency is None else _adjacency
    dist = _distances(adjacency, edge, p)
    size = len(dist)
    if size > cap:
        raise SupportTooLarge(f"support of {edge} has {size} qubits, cap is {cap}")
    if not auto:
        kept = sum(d < p for d in dist.values()) if engine == "traced" else 0
        if 4**kept > 2**cap:
            raise SupportTooLarge(f"traced {edge} plans 4^{kept} entries, cap is 2^{cap}")
        return _run_engine(adjacency, edge, dist, params, engine, cap)
    whole[3] = whole[3] or GraphPass(graph, params, cap)
    kept = [u for u, d in dist.items() if d < p]
    cuts = sum(dist[v] == p or u < v for u in kept for v, _ in adjacency[u]) - (size - 1)
    if not cuts:
        return whole[3].tree_value(adjacency, *edge)
    key = _memo_key(adjacency, edge, dist, p)
    sign = 1.0 if dict(adjacency[edge[0]])[edge[1]] > 0 else -1.0
    if key not in _memo:
        if cuts <= 2 and p == 2:  # see the module docstring
            corr = whole[3].skeleton(adjacency, edge, dist)
        else:
            corr = _run_engine(adjacency, edge, dist, params, engine, cap)
        _memo[key] = sign * corr
    return sign * _memo[key]


def _run_engine(adjacency, edge, dist, params, engine, cap) -> float:
    """<Z_i Z_j> from the named engine, or the automatic choice."""
    if engine == "auto":
        p = params.p
        core = sum(d < p - 1 for d in dist.values())
        shell = sum(d == p - 1 for d in dist.values())
        # shell qubits count once at p=2 and twice beyond (module docstring)
        axes = 2 * core + (shell if p == 2 else 2 * shell)
        traced = axes < len(dist) and 4 ** (core + shell) <= 2**cap
        engine = "traced" if traced else "statevector"
    if engine == "traced":
        return _corr_traced(adjacency, dist, params)
    if engine == "statevector":
        return _corr_statevector(adjacency, edge, dist, params)
    raise ValueError(f"unknown engine {engine!r}")


def _memo_key(adjacency, edge, dist, p):
    """Memo key of a loopy lightcone: equal keys give equal sign(J_ij) <Z_i Z_j>."""
    kept = [u for u, d in dist.items() if d < p]
    links = Counter(v for u in kept for v, _ in adjacency[u])
    code = {v: f"[{n}]" for v, n in links.items()}
    for u in reversed(kept):
        d = dist[u]
        code[u] = "(" + "".join(sorted(
            f"{abs(val)}{'=' if dist[v] == d else '^' if dist[v] < d else code[v]}"
            for v, val in adjacency[u]
        )) + ")"
    i, j = edge
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
    results are bitwise reproducible.  No engine runs at p=1, nor at p >= 2 on
    lightcones with at most two cycles (see the module docstring).
    """
    memo = {}
    mean_adj = float(graph.constant)
    for edge, value in graph.couplings.items():
        corr = edge_correlation(graph, edge, params, support_cap=support_cap, _memo=memo)
        mean_adj += value * corr
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )
