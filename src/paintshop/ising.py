"""Mapping paint shop words to Ising spin systems.

Each adjacent pair of positions (k, k+1) contributes one quadratic term
between the two cars involved.  With o_m the number of occurrences of the
car at position m strictly before m, the contribution carries the sign
(-1)^(o_k + o_{k+1} + 1): ferromagnetic (-1) when both positions are the
same occurrence kind, antiferromagnetic (+1) when mixed.  An adjacency of a
car with itself is a constant +1 (sigma_z squared is the identity).

Contributions for the same unordered car pair are merged; merged couplings
take values in {-2, -1, +1, +2} and pairs whose contributions cancel to zero
are dropped from the map (they are still counted by ``coupling_stats``).

Energy conventions: ``adjacency_energy`` is the integer
constant + sum_ij J_ij s_i s_j, related to the cost by
color_changes = (adjacency_energy + 2n - 1) / 2.  ``hamiltonian_energy``
is half of it, matching the energy function with the one-half prefactor.
The ground adjacency energy of the single-optimum ladder word
(hard_instance) is -(2n - 3).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .core import BpspInstance, Coloring, json_fields


#: Python's and numpy's integer types; ``bool`` is not one.
_INTS = frozenset({int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])})


class NotATree(ValueError):
    """The coupling graph contains a cycle."""


class NonUnitCoupling(ValueError):
    """Gauge fixing requires all couplings in {-1, +1}."""


class NoCouplings(ValueError):
    """The given instances merge to no coupling at all."""


@dataclass(frozen=True)
class CouplingGraph:
    """Merged pair couplings plus an additive constant.  ``couplings`` is a mapping,
    or ((i, j), J) items as ``dict`` takes them; the graph copies it into a dict of
    its own and checks that each key is a pair (i, j) with 0 <= i < j < n and each J
    an integer, raising ``ValueError`` naming any other coupling.  ``couplings`` is
    then a read-only view of that dict, so no caller can change what was checked."""

    n: int
    couplings: Mapping
    constant: int

    def __post_init__(self):
        n = self.n
        couplings = dict(self.couplings)
        for key, value in couplings.items():
            i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
            if not (type(i) in _INTS and type(j) in _INTS and type(value) in _INTS
                    and 0 <= i < j < n):
                raise ValueError(f"coupling {key!r}: {value!r}, want int J, 0 <= i < j < {n}")
        object.__setattr__(self, "couplings", MappingProxyType(couplings))

    def adjacency_lists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each qubit's (neighbour, coupling) pairs, built once per graph:
        ``couplings`` is read-only after construction."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (i, j), val in self.couplings.items():
            adj[i].append((j, val))
            adj[j].append((i, val))
        return tuple(map(tuple, adj))

    def degrees(self) -> np.ndarray:
        return np.fromiter(map(len, self.adjacency_lists()), dtype=np.int64, count=self.n)


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
    # Column lists, not one list per row, keep the transient memory small at large n.
    lo, hi = pairs.T.tolist()
    couplings = zip(zip(lo, hi), values.tolist())
    return CouplingGraph(n=instance.n, couplings=couplings, constant=constant)


def adjacency_energy(graph: CouplingGraph, spins: np.ndarray) -> int:
    """constant + sum_ij J_ij s_i s_j for one spin configuration (+-1)."""
    s = np.asarray(spins).tolist()
    total = graph.constant
    for (i, j), val in graph.couplings.items():
        total += val * s[i] * s[j]
    return int(total)


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
    degree_sum = 0
    qubit_count = 0
    zero_merged = 0
    for inst in instances:
        pairs, values, _, zeros = _merged_arrays(inst)
        keys, counts = np.unique(values, return_counts=True)
        hist.update(dict(zip(keys.tolist(), counts.tolist())))
        if zeros:
            hist[0] += zeros
            zero_merged += zeros
        degree_sum += 2 * values.size
        qubit_count += inst.n
    pair_count = sum(hist.values())
    if pair_count == 0:
        raise NoCouplings("no couplings in the given instances")
    return CouplingStats(
        histogram=dict(sorted(hist.items())),
        pair_count=pair_count,
        mean_degree=degree_sum / qubit_count,
        frac_minus_one=hist.get(-1, 0) / pair_count,
        frac_plus_one=hist.get(1, 0) / pair_count,
        frac_mag_two=(hist.get(-2, 0) + hist.get(2, 0)) / pair_count,
        zero_merged=zero_merged,
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
    for val in graph.couplings.values():
        if val not in (-1, 1):
            raise NonUnitCoupling(f"coupling {val} not in {{-1, +1}}")
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
    flipped = (((i, j), -val if (i in flips) != (j in flips) else val)
               for (i, j), val in graph.couplings.items())
    return CouplingGraph(n=graph.n, couplings=flipped, constant=graph.constant)


def graph_to_json(graph: CouplingGraph) -> dict:
    """Stable JSON form: {"n": ..., "couplings": sorted [[i, j, J], ...], "constant": ...}."""
    couplings = [[int(i), int(j), int(v)] for (i, j), v in sorted(graph.couplings.items())]
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
