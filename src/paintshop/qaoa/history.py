"""<Z_i Z_j> on history variables (Basso, Farhi, Marwaha, Villalonga, Zhou,
arXiv:2110.14206), exact on lightcones with at most two cycles.

A qubit's 2p+1 history bits are, from bit 0, its ket k_1..k_p after each phase
level, its measured bit m and its bra b_p..b_1.  Summed over all histories,
<Z_i Z_j> = sum prod_v f(x_v) prod_uv h_J(x_u ^ x_v) m(x_i) m(x_j), with f half the
mixer elements along the chain (e^{-i beta X} on the ket, e^{+i beta X} on the
bra), m the measured spin and h_J(x) = exp(-i J PHASE_SCALE sum_t gamma_t
(k_t - b_t)) over the spins of x: phases see s_u s_v, the spin of the XOR.  So
h_J acts by XOR convolution, h_J (*) g: two Walsh-Hadamard transforms by reshape
and add, as BLAS threads cost more than they save on 2^{2p+1} entries.  On a
tree, c sends neighbour u h_J (*) (f prod M_w) over its other neighbours w, a
boundary qubit (distance p) h_J (*) f.  ``GraphPass`` runs p - 1 rounds over
every directed coupling, by class (J and the sorted classes multiplied, one int
per row for 1-D ``np.unique``), and <Z_i Z_j> = sum m g_i (h_J (*) m g_j), g_i
being f times the messages into i but j's.  It holds O(m) integers and one
complex vector per class, none per coupling: at p=2, 3 and 19 message classes
at n=300 as at n=20 000, where the pass peaks at 355 bytes per coupling.
"""
from __future__ import annotations

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
    """f, m and theta (h_J = exp(-i J theta)) over the 2^{2p+1} histories."""

    def __init__(self, params: QaoaParams):
        p = params.p
        bits = (np.arange(1 << (2 * p + 1))[:, None] >> np.arange(2 * p + 1)) & 1
        spins = 1 - 2 * bits
        gammas, betas = np.array(params.angles).T
        beta, sign = np.concatenate((betas, betas[::-1])), np.repeat([-1j, 1j], p)
        flip = bits[:, 1:] != bits[:, :-1]  # link q joins bits q and q + 1
        f = np.where(flip, sign * np.sin(beta), np.cos(beta)).prod(axis=1)
        self.f = f / f.sum()  # 1 but for rounded sin^2 + cos^2, a bias each qubit repeats
        self.m, gammas = spins[:, p], PHASE_SCALE * gammas
        self.theta = (spins[:, :p] * gammas).sum(1) - (spins[:, p + 1:] * gammas[::-1]).sum(1)


def _group(code: np.ndarray, columns: np.ndarray, sentinel: int):
    """Class of each row of (code, columns <= sentinel...), and each class's first row."""
    for column in columns:  # each step renumbers, so codes stay below the row count
        code = np.unique(code * (sentinel + 1) + column, return_inverse=True)[1]
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    return code, first


class GraphPass:
    """Messages of each directed coupling e, in the CSR row of the qubit it enters
    (by neighbour, as ``adjacency_lists``): ``classes[r][e]`` with r levels below
    the sender, ``messages[r]`` by class, ``corr[e]`` if its lightcone is a tree.
    Messages from over ``cap`` qubits, read by no lightcone within it, share one class."""

    def __init__(self, graph, params: QaoaParams, cap: int):
        self.p, tables = params.p, Tables(params)
        self.tables = tables
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
        self.classes, self.messages = [couplings], [_convolve(hhat, f[None])]
        for r in range(1, self.p + 1):  # round p: g of each end, not yet sent
            count = len(self.messages[-1])
            ids = np.append(self.classes[-1], count)[at]
            ids.sort(axis=0)
            size = 1 + np.append(size, 0)[at].sum(axis=0)
            ids[:, size > cap] = count
            code, rep = _group(np.where(size > cap, -1, couplings * (r < self.p)), ids, count)
            known, g = np.vstack((self.messages[-1], np.ones_like(f))), f
            for column in ids[:, rep]:
                g = g * known[column]
            if r < self.p:
                self.classes.append(code)
                self.messages.append(_convolve(hhat[couplings[rep]], g))
        # g of each end without the other, then sum m g_i (h_J (*) m g_j) per class
        ends = np.sort((code[rank[:m]], code[rank[m:]]), axis=0)
        pair, rep = _group(label, ends, len(g))
        spectra = _wht(tables.m * g)
        value = np.concatenate([
            np.einsum("ck,ck,ck->c", hhat[label[c]], spectra[ends[0, c]], spectra[ends[1, c]])
            for c in np.array_split(rep, 1 + len(rep) // 1024)])  # bounded temporaries
        self.corr = (value.real / len(f))[pair][order % m]
        self.row = row.tolist()

    def tree_value(self, adjacency, i: int, j: int) -> float:
        """<Z_i Z_j> of a coupling whose lightcone is a tree."""
        return float(self.corr[self.row[i] + [v for v, _ in adjacency[i]].index(j)])

    def skeleton(self, adjacency, edge, dist) -> float:
        """<Z_i Z_j> of a lightcone with one or two cuts (acting couplings off the
        search tree of (i, j) and parents one level nearer) on its skeleton: i, j,
        the cut ends and their ancestors, off which pure trees hang.  Qubits of
        degree 1 or 2 are summed out by broadcast products of the factors
        h_J(a ^ b); with at most two cycles, one is always left."""
        p, tables = self.p, self.tables
        parent = {v: next(x for x in adjacency[v] if dist.get(x[0]) == d - 1)
                  for v, d in dist.items() if d}
        up = {v: u for v, (u, _) in parent.items()}
        links = [(u, v, J) for u, d in dist.items() if d < p for v, J in adjacency[u]
                 if (dist[v] == p or u < v) and up.get(u) != v and up.get(v) != u]
        skeleton = set(edge)  # links are (i, j) and the cuts
        for q in (q for u, v, _ in links for q in (u, v)):
            while q not in skeleton:
                skeleton.add(q)
                q = up[q]
        factor = {s: tables.f * tables.m if s in edge else tables.f for s in skeleton}
        for s in skeleton:
            for k, (c, _) in enumerate(adjacency[s]):
                if c not in skeleton and up.get(c) == s:
                    r = p - dist[c]
                    factor[s] = factor[s] * self.messages[r][self.classes[r][self.row[s] + k]]
        # Phases ignore measured bits, so a qubit but i and j sums its own out first: f
        # then vanishes unless k_p = b_p, and a quarter of the histories are left.
        full = np.arange(len(tables.f))
        rest = full[(full >> p & 1 == 0) & (full >> p - 1 & 1 == full >> p + 1 & 1)]
        states, near = {s: full if s in edge else rest for s in skeleton}, {s: {} for s in skeleton}
        for s in skeleton - set(edge):
            factor[s] = (factor[s] + factor[s][full ^ 1 << p])[rest]

        def join(u, v, h):  # near[u][v][x_u, x_v]; parallel couplings multiply
            h = h * near[u][v] if v in near[u] else h
            near[u][v], near[v][u] = h, h.T

        for u, v, J in links + [(v, u, J) for v, (u, J) in parent.items() if v in skeleton]:
            join(u, v, np.exp(-1j * J * tables.theta)[states[u][:, None] ^ states[v]])
        while len(near) > 1:  # not BLAS, which would hold its buffers
            v = min(near, key=lambda q: len(near[q]))
            pairs = list(near.pop(v).items())  # each [x_v, x_other]
            for u, _ in pairs:
                del near[u][v]
            if len(pairs) == 1:
                (u, a), = pairs
                factor[u] = factor[u] * (factor[v][:, None] * a).sum(axis=0)
            else:
                (u, a), (w, b) = pairs
                join(u, w, ((a * factor[v][:, None])[:, :, None] * b[:, None]).sum(axis=0))
        return float(factor[next(iter(near))].sum().real)


def tree_limit(params: QaoaParams, degree: int = 4) -> float:
    """<Z_i Z_j> of a J = -1 coupling on the infinite ``degree``-regular tree of
    |J| = 1 couplings, which large random words approach (1 minus it is the cost
    per car): p rounds of M <- h (*) (f M^{D-1}) from M = 1 give the messages."""
    tables = Tables(params)
    hhat, message = _wht(np.exp(1j * tables.theta)), 1.0
    for _ in range(params.p):
        message = _convolve(hhat, tables.f * message ** (degree - 1))
    spectrum = _wht(tables.m * tables.f * message ** (degree - 1))
    return float((hhat * spectrum * spectrum).sum().real) / len(tables.f)
