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

import numpy as np

from .core import BpspInstance, Coloring
from .ising import CouplingGraph


def greedy(instance: BpspInstance, initial_color: int = 0) -> Coloring:
    """Paint along the word, flipping the current color only when forced.

    An unseen car takes the current color as its first color.  A seen car is
    forced to the opposite of its first color; the current color follows it,
    so a change happens only when the car would otherwise be painted with its
    first color again.  The two initial colors give mirror colorings with
    identical cost.
    """
    fc = np.full(instance.n, -1, dtype=np.int8)
    current = int(initial_color)
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
    re-insert in reverse order, coloring each car to minimize the changes on
    the adjacencies it creates.

    The base length-2 word takes first color 0; each re-inserted car creates
    at most four adjacencies in the current reduced word and the cheaper of
    its two first colors is chosen, ties toward color 0.
    """
    n = instance.n
    m = 2 * n
    seq = instance.sequence
    occ = instance.occurrence
    first_pos = instance.first_positions()
    second_pos = instance.second_positions()

    # Doubly linked list over positions; -1 is the head sentinel, m the tail.
    nxt = list(range(1, m + 1))
    prv = list(range(-1, m - 1))
    last = m - 1

    def detach(i: int) -> None:
        nonlocal last
        a, b = prv[i], nxt[i]
        if a >= 0:
            nxt[a] = b
        if b < m:
            prv[b] = a
        if i == last:
            last = a

    deleted = []
    active = n
    while active > 1:
        car = int(seq[last])
        detach(int(first_pos[car]))
        detach(int(second_pos[car]))
        deleted.append(car)
        active -= 1

    fc = np.full(n, -1, dtype=np.int8)
    fc[seq[last]] = 0

    def attach(i: int) -> None:
        a, b = prv[i], nxt[i]
        if a >= 0:
            nxt[a] = i
        if b < m:
            prv[b] = i

    for car in reversed(deleted):
        p1, p2 = int(first_pos[car]), int(second_pos[car])
        attach(p2)
        attach(p1)
        edges = set()
        for i in (p1, p2):
            if prv[i] >= 0:
                edges.add((prv[i], i))
            if nxt[i] < m:
                edges.add((i, nxt[i]))
        best_cost, best_color = None, 0
        for candidate in (0, 1):
            fc[car] = candidate
            cost = 0
            for x, y in edges:
                cx = fc[seq[x]] ^ occ[x]
                cy = fc[seq[y]] ^ occ[y]
                cost += int(cx != cy)
            if best_cost is None or cost < best_cost:
                best_cost, best_color = cost, candidate
        fc[car] = best_color
    return Coloring(fc)


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
