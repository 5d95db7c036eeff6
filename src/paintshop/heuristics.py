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
    fc = bytearray(b"\x02") * instance.n  # 2: not seen yet
    current = 0
    for car in memoryview(instance.sequence):  # Python ints, no numpy scalar per car
        color = fc[car]
        if color == 2:
            fc[car] = current
        else:
            current = 1 - color
    return Coloring(np.frombuffer(fc, dtype=np.int8))


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
    # Memoryviews of the position arrays: every read below is a Python int, not a numpy scalar.
    firsts, seconds = memoryview(first[instance.sequence[seconds]]), memoryview(seconds)
    # Doubly linked ring of positions closed by a header at m; typed arrays, no int objects.
    nxt, prv = array("q", range(1, m + 2)), array("q", range(-1, m))
    nxt[m], prv[0] = 0, m
    for k in range(n - 1, 0, -1):
        p1, p2 = firsts[k], seconds[k]
        nxt[prv[p1]], prv[nxt[p1]] = nxt[p1], prv[p1]
        nxt[prv[p2]], prv[nxt[p2]] = nxt[p2], prv[p2]
    color = bytearray(m + 1)  # per position; the header's byte stays 0
    color[seconds[0]] = 1
    for k in range(1, n):
        p1, p2 = firsts[k], seconds[k]
        nxt[prv[p2]] = prv[nxt[p2]] = p2
        nxt[prv[p1]] = prv[nxt[p1]] = p1
        # nxt[p1] == p2 (so prv[p2] == p1) is the car's own adjacency, which does not
        # vote.  The header m (only ever prv[p1]) must not vote either, but its byte 0
        # is a vote for 0, which moves no strict majority and no tie toward 0.
        j = prv[p1]
        if nxt[p1] == p2:
            color[p1] = color[j]
        else:
            color[p1] = color[j] + color[nxt[p1]] + 1 - color[prv[p2]] >= 2
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
    seq, occ = instance.sequence, instance.occurrence
    k = np.flatnonzero(occ[1:] == 0) + 1
    # The car at k is new there, so it differs from the car at k-1 and no pair repeats.
    i, j = seq[k], seq[k - 1]
    keys = zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())
    couplings = zip(keys, np.where(occ[k - 1] == 0, -1, 1).tolist())
    return CouplingGraph(n=instance.n, couplings=couplings, constant=0)
