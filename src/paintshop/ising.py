"""Mapping paint shop words to Ising spin systems.

Each adjacent pair of positions (k, k+1) contributes one quadratic term
between the two cars involved.  With o_m the number of occurrences of the
car at position m strictly before m, the contribution carries the sign
(-1)^(o_k + o_{k+1} + 1): ferromagnetic (-1) when both positions are the
same occurrence kind, antiferromagnetic (+1) when mixed.  An adjacency of a
car with itself is a constant +1 (sigma_z squared is the identity).

Contributions for the same unordered car pair are merged; merged couplings
take values in {-2, -1, +1, +2} and pairs whose contributions cancel to zero
are dropped (they are still counted by ``coupling_stats``).  A graph stores
its couplings as sorted int64 arrays, ``pairs`` and ``values``; ``couplings``
is a read-only mapping view of them, iterated in sorted key order.

Energy conventions: ``adjacency_energy`` is the integer
constant + sum_ij J_ij s_i s_j, related to the cost by
color_changes = (adjacency_energy + 2n - 1) / 2.  ``hamiltonian_energy``
is half of it, matching the energy function with the one-half prefactor.
The ground adjacency energy of the single-optimum ladder word
(hard_instance) is -(2n - 3).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import _INTS, BpspInstance, Coloring, json_fields, shown


_INT64_MAX = int(np.iinfo(np.int64).max)


class NotATree(ValueError):
    """The coupling graph contains a cycle."""


class NonUnitCoupling(ValueError):
    """Gauge fixing requires all couplings in {-1, +1}."""


class NoCouplings(ValueError):
    """The given instances merge to no coupling at all."""


class Couplings(Mapping):
    """Read-only mapping (i, j) -> J over a graph's sorted arrays, keys in key order from
    one ``tolist``; the first lookup, ``in``, ``items()`` or ``values()`` builds a dict."""

    def __init__(self, pairs: np.ndarray, values: np.ndarray):
        self._pairs, self._values = pairs, values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return zip(*self._pairs.T.tolist())

    def __getitem__(self, key) -> int:
        i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
        if type(i) in _INTS and type(j) in _INTS and (value := self._lookup.get(key)) is not None:
            return value
        raise KeyError(key)

    @cached_property
    def _lookup(self) -> dict:
        return dict(zip(self, self._values.tolist()))

    def items(self) -> ItemsView:
        return self._lookup.items()

    def values(self) -> ValuesView:
        return self._lookup.values()

    def __repr__(self) -> str:
        return f"Couplings({self._lookup!r})"


@dataclass(frozen=True, init=False)
class CouplingGraph:
    """Merged pair couplings plus an additive constant, stored as read-only int64
    arrays: ``pairs`` (m, 2), rows i < j in increasing order, and their J in
    ``values``, which loops read; ``couplings`` is a mapping view for lookups.  It
    takes a mapping or ((i, j), J) items, as ``dict`` does, or the arrays by
    ``from_arrays``, and keeps copies.  It checks each key is a pair (i, j) with
    0 <= i < j < n and each J an int, |J| < 2**63: ``ValueError`` names any other."""

    n: int
    couplings: Couplings
    constant: int

    def __init__(self, n: int, couplings, constant: int):
        couplings = dict(couplings)
        for key, value in couplings.items():
            i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
            if not (type(i) in _INTS and type(j) in _INTS and type(value) in _INTS
                    and 0 <= i < j < min(n, _INT64_MAX + 1) and abs(int(value)) <= _INT64_MAX):
                raise ValueError(f"coupling {shown(key)}: {shown(value)}, want int J, |J| < 2**63, "
                                 f"0 <= i < j < {n}")
        keys, values = zip(*sorted(couplings.items())) if couplings else ((), ())
        self._store(n, np.array(keys, dtype=np.int64).reshape(-1, 2),
                    np.array(values, dtype=np.int64), constant)

    @classmethod
    def from_arrays(cls, n: int, pairs, values, constant: int) -> CouplingGraph:
        """Graph over integer arrays ``pairs`` (m, 2) and ``values`` (m,), with rows
        strictly increasing: one vectorized check, ``ValueError`` at the first bad row."""
        pairs, values = np.asarray(pairs), np.asarray(values)
        if not ({pairs.dtype.kind, values.dtype.kind} <= {"i", "u"}
                and values.ndim == 1 and pairs.shape == (*values.shape, 2)):
            raise ValueError(f"want integer pairs (m, 2) and values (m,), got {pairs.dtype} "
                             f"{pairs.shape} and {values.dtype} {values.shape}")
        first, second = pairs.T
        ok = (first >= 0) & (first < second) & (second < min(n, _INT64_MAX + 1))
        ok &= (-_INT64_MAX <= values) & (values <= _INT64_MAX)
        ok[1:] &= (first[1:] > first[:-1]) | (first[1:] == first[:-1]) & (second[1:] > second[:-1])
        if not ok.all():
            k = int(ok.argmin())
            raise ValueError(f"coupling {k}: {pairs[k].tolist()}: {values[k]}, want |J| < 2**63, "
                             f"0 <= i < j < {n}, after the coupling before it")
        graph = cls.__new__(cls)
        graph._store(n, pairs, values, constant)
        return graph

    def _store(self, n: int, pairs: np.ndarray, values: np.ndarray, constant: int) -> None:
        pairs, values = pairs.astype(np.int64, order="F"), values.astype(np.int64)
        pairs.flags.writeable = values.flags.writeable = False
        vars(self).update(n=n, pairs=pairs, values=values, constant=constant,
                          couplings=Couplings(pairs, values))

    def adjacency_lists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each qubit's (neighbour, coupling) pairs, built once per graph:
        the arrays are read-only."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (i, j), val in zip(self.couplings, self.values.tolist()):
            adj[i].append((j, val))
            adj[j].append((i, val))
        return tuple(map(tuple, adj))

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)


def _merged_arrays(instance: BpspInstance):
    """Vectorized merge of adjacency contributions.

    Returns (pairs, values, constant, zero_merged) where pairs/values hold
    the nonzero merged couplings and zero_merged counts cancelled pairs.
    """
    n = instance.n
    seq = instance.sequence
    occ = instance.occurrence
    a, b = seq[:-1], seq[1:]
    # (-1)^(o_k + o_{k+1} + 1): +1 when the occurrence kinds differ.
    sign = 2 * (occ[:-1] ^ occ[1:]).astype(np.int64) - 1
    self_mask = a == b
    constant = int(sign[self_mask].sum())
    a, b, sign = a[~self_mask], b[~self_mask], sign[~self_mask]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * n + hi
    uniq, inverse = np.unique(key, return_inverse=True)
    values = np.bincount(inverse, weights=sign).astype(np.int64)
    nonzero = values != 0
    pairs = np.stack([uniq[nonzero] // n, uniq[nonzero] % n], axis=1)
    return pairs, values[nonzero], constant, int((~nonzero).sum())


def to_ising(instance: BpspInstance) -> CouplingGraph:
    """Merged coupling graph of a paint shop word."""
    pairs, values, constant, _ = _merged_arrays(instance)
    return CouplingGraph.from_arrays(instance.n, pairs, values, constant)


def adjacency_energy(graph: CouplingGraph, spins: np.ndarray) -> int:
    """constant + sum_ij J_ij s_i s_j for one spin configuration (+-1)."""
    s = np.asarray(spins, dtype=np.int64)
    agree = s[graph.pairs[:, 0]] * s[graph.pairs[:, 1]]
    # J = 2**32 high + low: each int64 sum is exact below 2**31 couplings.
    high, low = np.divmod(graph.values, 1 << 32)
    return graph.constant + (int(high @ agree) << 32) + int(low @ agree)


def hamiltonian_energy(graph: CouplingGraph, spins: np.ndarray) -> float:
    """Half the adjacency energy (the one-half prefactor convention)."""
    return adjacency_energy(graph, spins) / 2


def coloring_to_spins(coloring: Coloring) -> np.ndarray:
    """s_i = +1 for first color 0, -1 for first color 1."""
    return (1 - 2 * np.asarray(coloring.first_color, dtype=np.int64)).astype(np.int8)


def spins_to_coloring(spins: np.ndarray) -> Coloring:
    s = np.asarray(spins, dtype=np.int64)
    return Coloring(((1 - s) // 2).astype(np.int8))


@dataclass(frozen=True)
class CouplingStats:
    """Aggregate coupling statistics over a set of instances.

    ``histogram`` counts merged pair values including cancelled (zero) pairs;
    fractions are relative to all merged pairs.  ``mean_degree`` counts only
    stored (nonzero) couplings.
    """

    histogram: dict
    pair_count: int
    mean_degree: float
    frac_minus_one: float
    frac_plus_one: float
    frac_mag_two: float
    zero_merged: int


def coupling_stats(instances: Iterable[BpspInstance]) -> CouplingStats:
    hist: Counter = Counter()
    qubit_count = 0
    for inst in instances:
        _, values, _, zeros = _merged_arrays(inst)
        keys, counts = np.unique(values, return_counts=True)
        hist.update(dict(zip(keys.tolist(), counts.tolist())))
        if zeros:
            hist[0] += zeros
        qubit_count += inst.n
    return _stats(hist, qubit_count)


def _stats(hist: Counter, qubit_count: int) -> CouplingStats:
    """``CouplingStats`` of a merged pair-value histogram, 0 counting cancelled pairs."""
    pair_count = sum(hist.values())
    if pair_count == 0:
        raise NoCouplings("no couplings in the given instances")
    return CouplingStats(
        histogram=dict(sorted(hist.items())),
        pair_count=pair_count,
        mean_degree=2 * (pair_count - hist[0]) / qubit_count,
        frac_minus_one=hist[-1] / pair_count,
        frac_plus_one=hist[1] / pair_count,
        frac_mag_two=(hist[-2] + hist[2]) / pair_count,
        zero_merged=hist[0],
    )


def tree_gauge(graph: CouplingGraph) -> frozenset:
    """Spin-flip set turning an acyclic +-1 coupling graph ferromagnetic.

    Flipping the spins in the returned set F negates every coupling with
    exactly one endpoint in F, leaving all couplings at +1 (energies and
    circuit expectations of J-weighted observables are unchanged).  Each
    connected component contributes the smaller of its two valid flip sets
    (ties resolved toward the set excluding the component's smallest qubit),
    which makes the output deterministic.
    """
    if not np.isin(graph.values, (-1, 1)).all():
        raise NonUnitCoupling(f"couplings {set(graph.values.tolist())} not all in {{-1, +1}}")
    adj = graph.adjacency_lists()
    sign = np.zeros(graph.n, dtype=np.int8)
    flips: set[int] = set()
    components = 0
    for root in range(graph.n):
        if sign[root]:
            continue
        components += 1
        sign[root] = 1
        component = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            for v, val in adj[u]:
                if sign[v] == 0:
                    sign[v] = sign[u] * val
                    component.append(v)
                    stack.append(v)
        # The root is the component's smallest qubit and is never flipped, so
        # a tie goes to the flipped set.
        flipped = [q for q in component if sign[q] < 0]
        kept = [q for q in component if sign[q] > 0]
        flips.update(flipped if 2 * len(flipped) <= len(component) else kept)
    # A forest has n - components edges; one more closes a cycle.
    if len(graph.couplings) > graph.n - components:
        raise NotATree("coupling graph has more edges than a forest allows")
    return frozenset(flips)


def apply_gauge(graph: CouplingGraph, flips: frozenset | set) -> CouplingGraph:
    """Negate couplings with exactly one endpoint in the flip set."""
    flipped = np.isin(graph.pairs, list(flips))
    values = np.where(flipped[:, 0] != flipped[:, 1], -graph.values, graph.values)
    return CouplingGraph.from_arrays(graph.n, graph.pairs, values, graph.constant)


def graph_to_json(graph: CouplingGraph) -> dict:
    """Stable JSON form: {"n": ..., "couplings": sorted [[i, j, J], ...], "constant": ...}."""
    couplings = np.column_stack((graph.pairs, graph.values)).tolist()
    return {"n": graph.n, "couplings": couplings, "constant": graph.constant}


def graph_from_json(obj: dict) -> CouplingGraph:
    """Inverse of ``graph_to_json``, coercing nothing: anything else raises ValueError."""
    n, constant, entries = json_fields(obj, n=int, constant=int, couplings=list)
    if n < 0:
        raise ValueError(f"graph n must be >= 0, got {n}")
    couplings = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, list) or list(map(type, entry)) != [int] * 3 or (
                (entry[0], entry[1]) in couplings):
            raise ValueError(f"coupling {index}: want a new [i, j, J] of ints: {entry!r}")
        couplings[entry[0], entry[1]] = entry[2]
    return CouplingGraph(n=n, couplings=couplings, constant=constant)
