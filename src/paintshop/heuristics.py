"""Classical sequential heuristics for the paint shop word.

greedy            walk with a current color, change only when forced
                  (mean cost ~ n/2 on random words)
red_first         paint every first occurrence with color 0 (~ 2n/3)
recursive_greedy  peel cars off the tail, recolor them optimally on the way
                  back in (~ 2n/5); one nearest-smaller search over the word
                  in peel order places every car, and one vote colors it

At n=100 000 (2-vCPU host, Python 3.11, numpy 2.4) recursive_greedy takes
about 0.05 s per random word with a tracemalloc peak of 5.6 MiB, and greedy
about 0.01 s and 0.1 MiB.

``greedy_subsystem`` exposes the acyclic n-1 coupling subsystem whose ground
states are exactly the greedy solutions.
"""
from __future__ import annotations

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


def min_tree(values: np.ndarray) -> list[np.ndarray]:
    """Aligned block minima of ``values``, the search structure of ``nearest_smaller``.

    Level l holds the minimum of each aligned block of 2^l values, the last
    block possibly short, followed by one end entry equal to the dtype's
    maximum, which no value is below.  Level 0 is a copy of ``values``, and
    the levels above it hold about as many entries again.
    """
    top = np.iinfo(values.dtype).max
    level = np.empty(values.size + 1, values.dtype)
    level[:-1], level[-1] = values, top
    tree = [level]
    while level.size > 2:
        half = level.size // 2  # an odd last block pairs with the end entry
        level = np.empty(half + 1, values.dtype)
        np.minimum(tree[-1][: 2 * half : 2], tree[-1][1 : 2 * half : 2], out=level[:half])
        level[half] = top
        tree.append(level)
    return tree


def nearest_smaller(tree: list[np.ndarray], at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position i in ``at``, the nearest positions j < i and j > i
    whose value is strictly below the value at i, or the number of values
    where there is none: the left and the right answers, as two arrays.

    ``tree`` is ``min_tree(values)``; the results have the dtype of
    ``values``, which must hold that number and the length of ``at``.  At
    each level, the block next to the one holding i, on the searched side,
    reaches at least as far as the blocks of the levels below, so the first
    of these blocks whose minimum is below i's value holds the nearest
    smaller value.  Each query climbs to that block, then descends into it,
    taking the child nearer to i whenever its minimum is below i's value.
    That is one vectorized pass per level each way, whatever the values.
    """
    values = tree[0]
    found = np.full((2, at.size), values.size - 1, values.dtype)
    for side, step, near, move in zip(found, (-1, 1), (1, 0), (np.subtract, np.add)):
        idx = np.arange(at.size, dtype=values.dtype)
        block, v = at.astype(values.dtype), values[at]
        for l, level in enumerate(tree[:-1]):
            block += step  # the next block out; -1 and the last index are the end entry
            hit = level[block] < v
            at_hit = np.flatnonzero(hit)
            c, w = block[at_hit], v[at_hit]
            for child in reversed(tree[:l]):
                c *= 2
                c += near  # the nearer child; move takes the other unless its minimum is below w
                move(c, child[c] >= w, out=c)
            side[idx[at_hit]] = c
            del c, w, at_hit  # one level's arrays at a time bound the peak memory
            keep = np.flatnonzero(~hit)
            del hit
            idx, v, block = idx[keep], v[keep], block[keep]
            del keep
            block -= step
            block >>= 1
            if not idx.size:
                break
        del idx, v, block  # and one side's queries at a time
    return tuple(found)


def recursive_greedy(instance: BpspInstance) -> Coloring:
    """Peel the car owning the final position until one car remains, then
    re-insert the cars in reverse order, giving each the first color that
    changes the fewest of the adjacencies it creates.  Three facts make
    this one nearest-smaller search and one vote per car:

    * The final position of a reduced word is a second occurrence, so cars
      leave in decreasing order of their second position: rank the cars by
      it, and the word car k returns to holds exactly the cars ranked below k.
      It ends at car k-1's second position ``end``, and car k's second
      position p2 returns after it.
    * Label each first position with its car's rank and each second
      position -1.  Car k's first position p1 returns between the nearest
      positions left and right of p1 labeled below k, the right one clamped
      at ``end``: all nearest smaller values over the labels, for every car
      at once.  Second positions left of p1 rank below k, as do those right
      of it up to ``end``; so when p1 < end, the right answer is already at
      most ``end``.  When p1 > end, nothing ranked below k lies right of p1
      or between ``end`` and p1, so both answers are ``end``.
    * An adjacency of the car's position i with another car's position j
      avoids a change when the first color is color(j) ^ occurrence(i), so
      the cheaper first color is a majority vote, ties toward color 0.  The
      car's adjacency with itself always changes and does not vote.  When
      p1 > end, p1 lies between ``end`` and p2, and the two votes of ``end``
      outvote p2's, so p1 takes color(end) as its one voting adjacency asks.

    The car that remains takes first color 0.
    """
    n, m = instance.n, 2 * instance.n
    # Positions and ranks fit int32 while the "none" position m does.
    dtype = np.int32 if m <= np.iinfo(np.int32).max else np.int64
    seq = instance.sequence
    seconds = np.flatnonzero(instance.occurrence == 1).astype(dtype)
    firsts = instance.first_positions()[seq[seconds]].astype(dtype)  # by rank
    labels = np.full(m, -1, dtype)
    labels[firsts] = np.arange(n, dtype=dtype)
    tree = min_tree(labels)
    del labels
    left1, right1 = nearest_smaller(tree, firsts)
    del tree
    np.minimum(right1[1:], seconds[:-1], out=right1[1:])
    color = bytearray(m + 1)  # per position; "none" is m, whose byte stays 0
    color[seconds[0]] = 1
    # Memoryviews: every read below is a Python int, not a numpy scalar.
    views = (memoryview(a)[1:] for a in (firsts, seconds, left1, right1))
    for p1, p2, l1, r1, end in zip(*views, memoryview(seconds)[:-1]):
        # A left "none" (l1 == m) must not vote, but its byte 0 is a vote
        # for 0, which moves no strict majority and no tie toward 0.
        color[p1] = color[l1] + color[r1] + 1 - color[end] >= 2
        color[p2] = 1 - color[p1]
    return Coloring(np.frombuffer(color, dtype=np.int8)[instance.first_positions()])


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
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))
    pairs = np.stack((lo, hi), axis=1)[order]
    values = np.where(occ[k - 1] == 0, -1, 1)[order]
    return CouplingGraph.from_arrays(instance.n, pairs, values, 0)
