"""Classical sequential heuristics for the paint shop word.

greedy            walk with a current color, change only when forced
                  (mean cost ~ n/2 on random words)
red_first         paint every first occurrence with color 0 (~ 2n/3)
recursive_greedy  peel cars off the tail, recolor them optimally on the way
                  back in (~ 2n/5)

``greedy_subsystem`` exposes the acyclic n-1 coupling subsystem whose ground
states are exactly the greedy solutions.
"""
from __future__ import annotations

from array import array

import numpy as np

from .core import BpspInstance, Coloring
from .ising import CouplingGraph


def greedy(instance: BpspInstance) -> Coloring:
    """Paint along the word, flipping the current color only when forced.

    An unseen car takes the current color as its first color.  A seen car is
    forced to the opposite of its first color; the current color follows it,
    so a change happens only when the car would otherwise be painted with its
    first color again.  The walk starts with color 0; ``Coloring.flip`` gives
    the mirror coloring, which starts with color 1 at the same cost.
    """
    fc = np.full(instance.n, -1, dtype=np.int8)
    current = 0
    for car in instance.sequence:
        if fc[car] < 0:
            fc[car] = current
        else:
            current = 1 - int(fc[car])
    return Coloring(fc)


def red_first(instance: BpspInstance) -> Coloring:
    """Every car's first occurrence gets color 0."""
    return Coloring(np.zeros(instance.n, dtype=np.int8))


def recursive_greedy(instance: BpspInstance) -> Coloring:
    """Peel the car owning the final position until one car remains, then
    re-insert the cars in reverse order, giving each the first color that
    changes the fewest of the adjacencies it creates.  Three facts make
    this one pass over a doubly linked list of positions:

    * The final position of a reduced word is a second occurrence, so cars
      leave in decreasing order of their second position.
    * Cars return in the reverse order, and an unlinked position keeps its
      links (as in dancing links), so re-linking a car's second position and
      then its first restores the word it left.
    * An adjacency of the car's position i with another car's position j
      avoids a change when the first color is color(j) ^ occurrence(i), so
      the cheaper first color is a majority vote, ties toward color 0.  The
      car's adjacency with itself always changes and does not vote.

    The car that remains takes first color 0.
    """
    n, m = instance.n, 2 * instance.n
    first = instance.first_positions()
    seconds = np.flatnonzero(instance.occurrence == 1)
    firsts = first[instance.sequence[seconds]]
    # Doubly linked ring of positions closed by a header at m; typed arrays, no int objects.
    nxt, prv = array("q", range(1, m + 2)), array("q", range(-1, m))
    nxt[m], prv[0] = 0, m
    for k in range(n - 1, 0, -1):
        for i in (int(firsts[k]), int(seconds[k])):
            nxt[prv[i]], prv[nxt[i]] = nxt[i], prv[i]
    color = bytearray(m + 1)  # per position
    color[seconds[0]] = 1
    for k in range(1, n):
        p1, p2 = int(firsts[k]), int(seconds[k])
        for i in (p2, p1):
            nxt[prv[i]] = prv[nxt[i]] = i
        near = ((prv[p1], 0), (nxt[p1], 0), (prv[p2], 1))
        votes = [color[j] ^ occ for j, occ in near if j not in (m, p1, p2)]
        color[p1] = 2 * sum(votes) > len(votes)
        color[p2] = 1 - color[p1]
    return Coloring(np.frombuffer(color, dtype=np.int8)[first])


#: The sequential heuristics by name; the single source of their CLI names.
SOLVERS = {"greedy": greedy, "red-first": red_first, "recursive-greedy": recursive_greedy}


def greedy_subsystem(instance: BpspInstance) -> CouplingGraph:
    """The n-1 coupling acyclic subsystem solved exactly by ``greedy``.

    For each car's first occurrence at position k >= 1, one coupling links it
    to the car at position k-1: ferromagnetic (-1) when that predecessor is
    also a first occurrence, antiferromagnetic (+1) otherwise.  Every greedy
    coloring satisfies all n-1 couplings, i.e. reaches the ground adjacency
    energy -(n-1).
    """
    seq = instance.sequence
    occ = instance.occurrence
    couplings = {}
    for k in range(1, 2 * instance.n):
        if occ[k] == 0:
            i, j = int(seq[k]), int(seq[k - 1])
            val = -1 if occ[k - 1] == 0 else 1
            couplings[(min(i, j), max(i, j))] = val
    return CouplingGraph(n=instance.n, couplings=couplings, constant=0)
