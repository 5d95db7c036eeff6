"""<Z_i Z_j> on history variables (Basso, Farhi, Marwaha, Villalonga, Zhou,
arXiv:2110.14206).

A qubit's 2p+1 history bits are, from bit 0, its ket k_1..k_p after each phase
level, its measured bit m and its bra b_p..b_1.  Summed over all histories,
<Z_i Z_j> = sum prod_v f(x_v) prod_uv h_J(x_u ^ x_v) m(x_i) m(x_j), with f half the
mixer elements along the chain (e^{-i beta X} on the ket, e^{+i beta X} on the
bra), m the measured spin and h_J(x) = exp(-i J PHASE_SCALE sum_t gamma_t
(k_t - b_t)) over the spins of x: phases see s_u s_v, the spin of the XOR.  So
h_J acts by XOR convolution, h_J (*) g: two Walsh-Hadamard transforms by reshape
and add, as BLAS threads cost more than they save on 2^{2p+1} entries.  On a
tree, c sends neighbour u h_J (*) (f prod M_w) over its other neighbours w, a
boundary qubit (distance p) h_J (*) f.  ``tree_values`` runs p - 1 rounds over
every directed coupling, by class (J and the sorted classes multiplied, one int
per row for 1-D ``np.unique``), for <Z_i Z_j> = sum m g_i (h_J (*) m g_j), g_i
being f times the messages into i but j's.  Its pass holds O(m) integers and
one complex vector per class, none per coupling (at p=2, 3 and 19 message
classes at n=300 as at n=20 000, peaking at 355 bytes per coupling), and it
returns the table type the p=1 closed form makes, 176 bytes a coupling.

Any lightcone is also an ``Elimination``.  A qubit at distance d from the
coupling meets no mixer after level p - d, so with beta = 0 there its f
vanishes off the 2^{2(p-d)+1} histories whose bits p-d..p+d agree: 2 on the
boundary, 8 at d = 1 when p = 2.  i and j sum out their measured bit with Z
folded in, keeping 2^{2p}.  Each step sums one qubit out of the factors that
hold it by one ``np.einsum``, which runs over their product without building
it, so the elimination holds only the factors steps make.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .params import PHASE_SCALE, QaoaParams


def _wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis."""
    shape, step = a.shape, 1
    while step < shape[-1]:
        pairs = a.reshape(-1, 2, step)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(shape)
        step *= 2
    return a


def _convolve(hhat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h (*) g along the last axis, hhat being the WHT of h."""
    return _wht(hhat * _wht(g)) / g.shape[-1]


class Tables:
    """f, m and theta (h_J = exp(-i J theta)) over the 2^{2p+1} histories; per
    distance d from the coupling, the histories a qubit there keeps and their
    weights; and the factor h_J(x_u ^ x_v) of each J and pair of distances."""

    def __init__(self, params: QaoaParams):
        p = self.p = params.p
        index = np.arange(1 << (2 * p + 1))
        bits = (index[:, None] >> np.arange(2 * p + 1)) & 1
        spins = 1 - 2 * bits
        gammas, betas = np.array(params.angles).T
        flip = bits[:, 1:] != bits[:, :-1]  # link q joins bits q and q + 1

        def chain(betas):  # over its own sum: rounded sin^2 + cos^2, a bias each qubit repeats
            beta, sign = np.concatenate((betas, betas[::-1])), np.repeat([-1j, 1j], p)
            f = np.where(flip, sign * np.sin(beta), np.cos(beta)).prod(axis=1)
            return f / f.sum()

        self.f, self.m, gammas = chain(betas), spins[:, p], PHASE_SCALE * gammas
        self.theta = (spins[:, :p] * gammas).sum(1) - (spins[:, p + 1:] * gammas[::-1]).sum(1)
        # i and j (d = 0) sum their measured bit out with Z folded in; past level
        # p - d a qubit meets no mixer, so its f has beta = 0 there
        weights = [np.where(bits[:, p] == 0, self.f - self.f[index ^ 1 << p], 0)]
        weights += [chain(betas * (np.arange(p) < p - d)) for d in range(1, p + 1)]
        self.states = [np.flatnonzero(w) for w in weights]
        self.weights = [w[kept] for w, kept in zip(weights, self.states)]
        self._factors = {}

    def factor(self, J: int, du: int, dv: int | None = None) -> np.ndarray:
        """h_J(x_u ^ x_v) over the histories kept at distances du and dv; with no
        dv, summed over a boundary qubit's two histories with their weights."""
        key = J, du, dv
        if key not in self._factors:
            pairs = self.states[du][:, None] ^ self.states[self.p if dv is None else dv]
            h = np.exp(-1j * J * self.theta[pairs])
            self._factors[key] = h if dv is not None else np.einsum("ij,j->i", h, self.weights[-1])
        return self._factors[key]


@functools.lru_cache(maxsize=16)
def tables_of(params: QaoaParams) -> Tables:
    """One ``Tables`` per schedule, its factors built once for every call."""
    return Tables(params)


def _group(code: np.ndarray, columns: np.ndarray, sentinel: int):
    """Class of each row of (code, columns <= sentinel...), and each class's first row."""
    for column in columns:  # each step renumbers, so codes stay below the row count
        code = np.unique(code * (sentinel + 1) + column, return_inverse=True)[1]
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    return code, first


def tree_values(graph, params: QaoaParams, cap: int) -> dict:
    """<Z_i Z_j> keyed by (i, j), i < j, exact where the coupling's lightcone is a tree;
    messages from over ``cap`` qubits, read by no lightcone within it, share one class."""
    p, tables = params.p, tables_of(params)
    first, second = graph.pairs.T
    m, deg = len(first), graph.degrees()
    row = deg.cumsum() - deg
    order = np.concatenate((second, first)).argsort(kind="stable")
    sender = np.concatenate((first, second))[order]
    rank = order.argsort()
    distinct, label = np.unique(graph.values, return_inverse=True)
    couplings, hhat = label[order % m], _wht(np.exp(-1j * np.outer(distinct, tables.theta)))
    # the sender's other incoming messages; 2m, the sentinel, past its row and for u
    column = np.arange(max(0, min(int(deg.max(initial=0)), cap)))[:, None]
    at = row[sender] + column
    at[(column >= deg[sender]) | (at == rank[(order + m) % (2 * m)])] = 2 * m
    f, size = tables.f, np.ones(2 * m, dtype=int)  # qubits on the sender's side
    code, messages = couplings, _convolve(hhat, f[None])  # each one's class; by class
    for r in range(1, p + 1):  # round p: g of each end, not yet sent
        count = len(messages)
        ids = np.append(code, count)[at]
        ids.sort(axis=0)
        size = 1 + np.append(size, 0)[at].sum(axis=0)
        ids[:, size > cap] = count
        code, rep = _group(np.where(size > cap, -1, couplings * (r < p)), ids, count)
        known, g = np.vstack((messages, np.ones_like(f))), f
        for column in ids[:, rep]:
            g = g * known[column]
        if r < p:
            messages = _convolve(hhat[couplings[rep]], g)
    # g of each end without the other, then sum m g_i (h_J (*) m g_j) per class
    ends = np.sort((code[rank[:m]], code[rank[m:]]), axis=0)
    pair, rep = _group(label, ends, len(g))
    spectra = _wht(tables.m * g)
    value = np.concatenate([
        np.einsum("ck,ck,ck->c", hhat[label[c]], spectra[ends[0, c]], spectra[ends[1, c]])
        for c in np.array_split(rep, 1 + len(rep) // 1024)])  # bounded temporaries
    corr = (value.real / len(f))[pair].tolist()
    del at, ids  # a round's gathers, 32 width bytes a coupling, before the table's 176
    return dict(zip(zip(*graph.pairs.T.tolist()), corr))


class Elimination:
    """<Z_i Z_j>: the sum over the histories each qubit of ``dist`` keeps of their
    weights times h_J(x_u ^ x_v) for each acting coupling (u, v, J), u off the
    boundary.  Qubits are summed out one at a time (Markov and Shi,
    arXiv:quant-ph/0511069), the smallest product of history counts first, each
    by one ``np.einsum`` over the factors that hold it.  Planned first: the order,
    ``largest``, the biggest step's product (its work), and ``entries``, the most
    held at once (the factors steps made and have not yet consumed)."""

    def __init__(self, tables: Tables, dist: dict, couplings):
        self.tables, self.dist = tables, dist
        size = {q: len(tables.states[d]) for q, d in dist.items()}
        near = {q: set() for q in dist}
        for u, v, _ in couplings:
            near[u].add(v)
            near[v].add(u)
        ends = {q for q, d in dist.items() if d == tables.p and len(near[q]) == 1}
        for q in ends:  # a boundary qubit with one neighbour goes first in any such order
            near[near.pop(q).pop()].discard(q)
        self.leaves = [(u, J) for u, v, J in couplings if v in ends]
        self.couplings = [(u, v, J) for u, v, J in couplings if v not in ends]

        def product(q):
            return size[q] * math.prod([size[u] for u in near[q]])

        self.order, made = [], []  # made: (scope, entries) of each factor a step makes
        self.largest = self.entries = max([2 * size[u] for u, _ in self.leaves], default=0)
        while near:
            product_v, v = min((product(q), q) for q in near)
            self.order.append(v)
            others = near.pop(v)
            made.append((others, product_v // size[v]))
            self.largest = max(self.largest, product_v)
            self.entries = max(self.entries, sum(e for _, e in made))
            made = [f for f in made if v not in f[0]]
            for u in others:
                near[u] = (near[u] | others) - {u, v}

    def value(self) -> float:
        tables, dist = self.tables, self.dist
        label = {q: t for t, q in enumerate(dist)}  # at most 30 of einsum's 52 labels
        factors = [((q,), tables.weights[dist[q]]) for q in self.order]
        factors += [((u,), tables.factor(J, dist[u])) for u, J in self.leaves]
        factors += [((u, v), tables.factor(J, dist[u], dist[v])) for u, v, J in self.couplings]
        for v in self.order:
            held = [f for f in factors if v in f[0]]
            factors = [f for f in factors if v not in f[0]]
            others = sorted({q for scope, _ in held for q in scope} - {v})
            operands = [x for scope, a in held for x in (a, [label[q] for q in scope])]
            factors.append((others, np.einsum(*operands, [label[q] for q in others])))
        return float(math.prod([a for _, a in factors]).real)


def tree_limit(params: QaoaParams, degree: int = 4) -> float:
    """<Z_i Z_j> of a J = -1 coupling on the infinite ``degree``-regular tree of
    |J| = 1 couplings, which large random words approach (1 minus it is the cost
    per car): p rounds of M <- h (*) (f M^{D-1}) from M = 1 give the messages."""
    tables = tables_of(params)
    hhat, message = _wht(np.exp(1j * tables.theta)), 1.0
    for _ in range(params.p):
        message = _convolve(hhat, tables.f * message ** (degree - 1))
    spectrum = _wht(tables.m * tables.f * message ** (degree - 1))
    return float((hhat * spectrum * spectrum).sum().real) / len(tables.f)
