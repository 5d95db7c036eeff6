"""Per-coupling lightcone evaluation of QAOA expectations.

For depth p, <Z_i Z_j> depends only on the circuit restricted to the
graph-distance-p ball around the coupling (i, j): all mixers on the ball,
all phase gates with both endpoints inside it.  Summing J_ij <Z_i Z_j> over
couplings plus the constant gives the exact mean adjacency energy without
ever building the full statevector, so instance size is limited by coupling
degrees rather than qubit count.

One breadth-first search per pair, which raises ``ValueError`` first unless
the pair is two distinct int qubits of the graph, records each qubit's distance
from the pair, up to p: distance <= p is the support, checked against the cap
(``SUPPORT_CAP`` unless given, clipped at the dense simulator's 30 qubits
whatever the caller asks), distance < p the kept ball, distance exactly p
its boundary.

Two exact engines sit behind the contract: ``statevector``, the dense
simulator run on the support relabelled to 0..k-1, is the oracle;
``traced`` is ``history.Elimination`` of the whole lightcone, planned before
any array is built, and raises ``SupportTooLarge`` if one of its steps runs
over, or its steps hold at once, more than 2^cap entries.  The automatic
choice bounds both by 2^|support|, the dense state's amplitudes, and runs the
dense engine past it.

With a memo, as ``lightcone_expectation`` calls it, a coupling reads a
whole-graph table of <Z_i Z_j> keyed by (i, j), i < j.  At p=1 the first call
stores each coupling that fits the cap from ``_closed_form``: one vectorized
pass over the graph's arrays, no key, no adjacency lists, rounding as one
coupling at a time would; any other raises ``SupportTooLarge`` from the search.
At p >= 2 the first tree lightcone within the cap (|support| - 1 acting
couplings: only those with an endpoint in the kept ball act, one between two
boundary qubits cancels) runs ``history.tree_values``, exact on trees.  Other
lightcones are memoized by shape (``_memo_key``), on a miss evaluated as
without a memo, as is a pair that is no coupling.  On the four n=300 p=2
benchmark words (seed 102), 1544 of 2381 couplings are trees and 165
lightcones are eliminated; on the 64 n=16 ``fig2`` words, 1110 are and 591 run
dense.  A new schedule or cap clears the memo, a new graph only its table, so
shapes stay memoized across one schedule's words.  Calls without a memo or
naming an engine still run one, so the tests hold the tables to both engines.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core import _INTS, TooLarge
from ..ising import CouplingGraph
from . import history
from .params import PHASE_SCALE, QaoaParams
from .statevector import _MAX_QUBITS, EnergySummary, simulate_state

#: Default qubit cap on a lightcone's support.
SUPPORT_CAP = 26


class SupportTooLarge(TooLarge):
    """A lightcone support exceeds the qubit cap; rejected, not approximated."""


@dataclass(frozen=True)
class LightconeTask:
    """One pair's restricted circuit: the pair and its support."""

    edge: tuple
    support: frozenset


def _distances(adjacency, edge, radius: int) -> dict:
    """Graph distance from the pair of every qubit within ``radius`` of it."""
    if not (len(edge) == 2 and {type(q) for q in edge} <= _INTS and edge[0] != edge[1]
            and 0 <= min(edge) <= max(edge) < len(adjacency)):
        raise ValueError(f"pair {edge} is not two distinct int qubits of 0..{len(adjacency) - 1}")
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


def lightcone_support(graph: CouplingGraph, edge: tuple, p: int) -> LightconeTask:
    """The pair and its support, the radius-p ball around it, from one search."""
    return LightconeTask(tuple(edge), frozenset(_distances(graph.adjacency_lists(), edge, p)))


def _corr_statevector(adjacency, edge, support, params) -> float:
    """<Z_i Z_j> from the dense simulator on the support, in 32 bytes per amplitude."""
    index = {q: t for t, q in enumerate(sorted(support))}
    k = len(index)
    sub = {(index[u], index[v]): J for u in index for v, J in adjacency[u] if u < v and v in index}
    state = simulate_state(CouplingGraph(n=k, couplings=sub, constant=0), params, cap_qubits=k)
    # s_i s_j is +1 on the two quarters of the index where bits i and j agree, -1 on the others
    lo, hi = sorted(index[q] for q in edge)
    quarter = (np.abs(state.amplitudes) ** 2).reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    agree = quarter[:, 0, :, 0].sum() + quarter[:, 1, :, 1].sum()
    return float(agree - (quarter[:, 0, :, 1].sum() + quarter[:, 1, :, 0].sum()))


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
    """<Z_i Z_j> of one pair under the restricted circuit; with ``_memo`` and the
    automatic engine, a coupling's from a whole-graph table filled for this graph
    (p=1 closed forms, p >= 2 tree values) or memoized by shape for these params.
    ``_memo`` takes the graph's couplings, as ``lightcone_expectation`` passes them: at
    p=1 its table is read before the search, so (0.0, 1) reads the (0, 1) value."""
    if engine not in ("auto", "traced", "statevector"):
        raise ValueError(f"unknown engine {engine!r}")
    p, cap = params.p, min(support_cap, _MAX_QUBITS)
    auto = _memo is not None and engine == "auto"
    if auto:
        scope = _memo.get("scope", (None,) * 4)  # no lightcone key is a str
        if scope[0] is not graph or scope[1] is not params or scope[2] != cap:
            if scope[1] is not params or scope[2] != cap:  # shapes hold under one schedule
                _memo.clear()
            table = _closed_form(graph, params, cap) if p == 1 else None  # else on first use
            scope = _memo["scope"] = [graph, params, cap, table]
        pair = tuple(edge) if edge[0] < edge[-1] else tuple(edge[::-1])  # a bad pair misses
        if p == 1 and (corr := scope[3].get(pair)) is not None:
            return corr
    adjacency = graph.adjacency_lists() if _adjacency is None else _adjacency
    dist = _distances(adjacency, edge, p)
    size = len(dist)
    if size > cap:
        raise SupportTooLarge(f"support of {edge} has {size} qubits, cap is {cap}")
    if engine == "statevector":
        return _corr_statevector(adjacency, edge, dist, params)
    acting = [(u, v, J) for u, d in dist.items() if d < p
              for v, J in adjacency[u] if dist[v] == p or u < v]
    coupling = dict(adjacency[edge[0]]).get(edge[1]) if auto else None
    if coupling is not None:  # with a memo; any other pair is evaluated as without one
        if len(acting) == size - 1:  # a tree
            scope[3] = scope[3] or history.tree_values(graph, params, cap)
            return scope[3][pair]
        key = _memo_key(adjacency, edge, dist, p)
        sign = 1.0 if coupling > 0 else -1.0
        if key in _memo:
            return sign * _memo[key]
    plan = history.Elimination(history.tables_of(params), dist, acting)
    most = max(plan.largest, plan.entries)  # what a step runs over, or the steps hold
    if most <= 2 ** (cap if engine == "traced" else size):
        corr = plan.value()
    elif engine == "traced":
        raise SupportTooLarge(f"traced {edge} plans {most} entries, cap is 2^{cap}")
    else:
        corr = _corr_statevector(adjacency, edge, dist, params)
    if coupling is not None:
        _memo[key] = sign * corr
    return corr


def _memo_key(adjacency, edge, dist, p):
    """Memo key of a loopy lightcone: equal keys give equal sign(J_ij) <Z_i Z_j>,
    which a gauge g with g_i g_j = sign(J_ij) keeps.  The acting couplings are
    relabelled in breadth-first order from the coupling, children by |J|, code
    (a boundary qubit's number of kept neighbours, a kept one's sorted |J|-labelled
    codes of its farther neighbours, same-level and upward ones marked), then
    qubit, gauge-fixed along that tree, and sorted (label_u, label_v, J_uv g_u g_v)."""
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
    tree lightcones (see the module docstring).
    """
    memo = {}
    mean_adj = float(graph.constant)
    for edge, value in zip(graph.couplings, graph.values.tolist()):
        corr = edge_correlation(graph, edge, params, support_cap=support_cap, _memo=memo)
        mean_adj += value * corr
    return EnergySummary(
        mean_adjacency_energy=mean_adj,
        mean_color_changes=(mean_adj + 2 * graph.n - 1) / 2,
    )
