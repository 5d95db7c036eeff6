"""Binary paint shop instances, colorings, and exact reference oracles.

An instance is a word of length 2n over n car identifiers in which every car
appears exactly twice.  A solution assigns each car the color of its first
occurrence; the second occurrence is forced to the opposite color.  The cost
of a solution is the number of adjacent positions that receive different
colors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class WrongMultiplicity(ValueError):
    """A car identifier does not appear exactly twice."""


class BadIdentifier(ValueError):
    """Car identifiers are not the dense range 0..n-1."""


class BadRecord(ValueError):
    """A JSON line is not an object with "n" and "sequence"."""


class TooLarge(ValueError):
    """A size past a ceiling, checked before allocation: 32 cars for brute force,
    2^30 cars for a random word, 30 qubits for the dense and native simulators,
    2^30 shots for sampling and, as ``SupportTooLarge``, 30 qubits for a lightcone support
    and 2^cap entries that one step of a named traced run's plan runs over or its steps
    hold at once.  A caller may cap lower."""


#: Python's and numpy's integer types; ``bool`` is not one, nor is any subclass.
_INTS = frozenset({int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])})

# A random word holds its int64 sequence (16 bytes per car), its stable argsort (16,
# plus the sort's scratch) and its int8 occurrence marks (2): 35 GiB at 2^30 cars.
_MAX_CARS = 1 << 30


@dataclass(frozen=True)
class BpspInstance:
    """A paint shop word: ``sequence[k]`` is the car at position k.

    ``occurrence[k]`` is 0 at a car's first position and 1 at its second;
    it is derived from ``sequence`` and cached here because every algorithm
    in the package needs it.
    """

    n: int
    sequence: np.ndarray
    occurrence: np.ndarray

    def first_positions(self) -> np.ndarray:
        """Position of each car's first occurrence, indexed by car."""
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.sequence[self.occurrence == 0]] = np.flatnonzero(self.occurrence == 0)
        return pos


@dataclass(frozen=True)
class Coloring:
    """First-occurrence color per car, values in {0, 1}."""

    first_color: np.ndarray

    def flip(self) -> "Coloring":
        return Coloring(1 - self.first_color)


@dataclass(frozen=True)
class OracleResult:
    opt_changes: int
    degeneracy: int
    witness: Coloring


def _occurrence_index(sequence: np.ndarray) -> np.ndarray:
    # Stable argsort groups the two positions of car c at slots 2c, 2c+1 in
    # ascending position order, so the odd slots are the second occurrences.
    order = np.argsort(sequence, kind="stable")
    occ = np.zeros(sequence.size, dtype=np.int8)
    occ[order[1::2]] = 1
    return occ


def validate(sequence: Sequence[int]) -> BpspInstance:
    """Check the paint shop word invariants and build an instance.

    Raises WrongMultiplicity if any identifier does not appear exactly twice,
    BadIdentifier if an entry is not an integer (floats, booleans and strings
    are rejected, never coerced) or the identifiers are not exactly 0..n-1.
    """
    seq = np.asarray(sequence, dtype=object)
    if seq.ndim != 1 or seq.size == 0:
        raise WrongMultiplicity("sequence must be a non-empty flat list of cars")
    for car in seq:
        if type(car) not in _INTS:
            raise BadIdentifier(f"car identifiers must be integers, got {car!r}")
    try:
        seq = seq.astype(np.int64)
    except OverflowError:
        raise BadIdentifier(f"car identifier {max(seq, key=abs)} exceeds 64 bits") from None
    ids, counts = np.unique(seq, return_counts=True)
    bad = ids[counts != 2]
    if bad.size:
        raise WrongMultiplicity(
            f"car {int(bad[0])} appears {int(counts[counts != 2][0])} times, expected 2"
        )
    n = seq.size // 2
    if ids[0] != 0 or ids[-1] != n - 1:
        outlier = int(ids[0]) if ids[0] != 0 else int(ids[-1])
        raise BadIdentifier(f"car identifiers must be 0..{n - 1}, got {outlier}")
    return BpspInstance(n=n, sequence=seq, occurrence=_occurrence_index(seq))


def from_labels(labels: Sequence) -> tuple[BpspInstance, dict]:
    """Renumber arbitrary hashable labels into 0..n-1 by first appearance.

    Returns the instance together with the label -> identifier map.
    """
    mapping: dict = {}
    seq = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        seq.append(mapping[lab])
    return validate(seq), mapping


def random_instance(n: int, rng: np.random.Generator | int) -> BpspInstance:
    """Uniform random arrangement of the multiset {0,0,1,1,...,n-1,n-1}.

    A uniform shuffle of the 2n labelled slots induces the uniform
    distribution over distinct arrangements (each arrangement has the same
    number 2^n of labelled preimages).
    """
    if n < 1:
        raise WrongMultiplicity("n must be >= 1")
    if n > _MAX_CARS:
        raise TooLarge(f"random words capped at {_MAX_CARS} cars, got {n}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    seq = np.repeat(np.arange(n, dtype=np.int64), 2)
    rng.shuffle(seq)
    return BpspInstance(n=n, sequence=seq, occurrence=_occurrence_index(seq))


def instance_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-instance generator: independent streams per index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, index)))


def hard_instance(n: int) -> BpspInstance:
    """The word (0, 1, ..., n-1, n-1, ..., 1, 0); optimum is one change."""
    if n < 1:
        raise WrongMultiplicity("n must be >= 1")
    half = np.arange(n, dtype=np.int64)
    seq = np.concatenate([half, half[::-1]])
    return BpspInstance(n=n, sequence=seq, occurrence=_occurrence_index(seq))


def easy_instance(n: int) -> BpspInstance:
    """The word (0, 0, 1, 1, ..., n-1, n-1); optimum is n changes."""
    if n < 1:
        raise WrongMultiplicity("n must be >= 1")
    seq = np.repeat(np.arange(n, dtype=np.int64), 2)
    return BpspInstance(n=n, sequence=seq, occurrence=_occurrence_index(seq))


def expand(instance: BpspInstance, coloring: Coloring) -> np.ndarray:
    """Per-position colors: the first occurrence color, flipped at the second."""
    fc = np.asarray(coloring.first_color, dtype=np.int8)
    return fc[instance.sequence] ^ instance.occurrence


def color_changes(instance: BpspInstance, coloring: Coloring) -> int:
    """Number of adjacent positions painted differently."""
    colors = expand(instance, coloring)
    return int(np.abs(np.diff(colors)).sum())


def random_guess_expectation(instance: BpspInstance) -> float:
    """Mean color changes of a uniformly random coloring.

    Adjacencies of two distinct cars change color with probability 1/2 under
    independent uniform first colors; adjacencies of a car with itself always
    change.  The value is exact (a dyadic rational).
    """
    seq = instance.sequence
    self_adj = int((seq[:-1] == seq[1:]).sum())
    distinct_adj = (2 * instance.n - 1) - self_adj
    return distinct_adj / 2 + self_adj


def brute_force_opt(instance: BpspInstance, cap_cars: int = 24) -> OracleResult:
    """Exact optimum by enumeration of first-color assignments.

    Exploits the global flip symmetry: the first car in the word is pinned to
    color 0 and only 2^(n-1) assignments are enumerated; the reported
    degeneracy doubles the count of minimizers, so it is always even.
    """
    n = instance.n
    cap = min(cap_cars, 32)  # the uint32 enumeration index holds 31 free cars
    if n > cap:
        raise TooLarge(f"brute force capped at {cap} cars, got {n}")
    seq = instance.sequence
    occ = instance.occurrence
    pinned = int(seq[0])
    # Bit position per car within the enumeration index; the pinned car reads
    # bit 31, which is always zero for indices below 2^(n-1) <= 2^31.
    bitpos = np.empty(n, dtype=np.int64)
    cars = np.arange(n)
    bitpos[cars] = cars - (cars > pinned)
    bitpos[pinned] = 31
    indices = np.arange(1 << max(n - 1, 0), dtype=np.uint32)
    counts = np.zeros(indices.size, dtype=np.uint8)
    pa = bitpos[seq[:-1]]
    pb = bitpos[seq[1:]]
    tau = (occ[:-1] ^ occ[1:]).astype(np.uint32)
    for k in range(2 * n - 1):
        changed = ((indices >> int(pa[k])) ^ (indices >> int(pb[k])) ^ tau[k]) & 1
        np.add(counts, changed.astype(np.uint8), out=counts)
    opt = int(counts.min())
    minimizers = np.flatnonzero(counts == opt)
    best = int(minimizers[0])
    fc = ((best >> bitpos) & 1).astype(np.int8)
    return OracleResult(
        opt_changes=opt,
        degeneracy=2 * int(minimizers.size),
        witness=Coloring(fc),
    )


def shown(value) -> str:
    """``repr`` for an error message; an int past Python's digit limit for
    ``str``, alone or in a tuple or list, shows its bit length instead of raising."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        text = ", ".join(map(shown, value))
        return f"({text}{',' * (len(value) == 1)})" if isinstance(value, tuple) else f"[{text}]"


def json_fields(obj, **types) -> tuple:
    """The named fields of a JSON object, BadRecord (a ValueError) unless ``obj``
    is a dict holding each; a type other than None must match exactly (no bool
    for an int)."""
    if not isinstance(obj, dict):
        raise BadRecord(f"expected a JSON object, got {type(obj).__name__}")
    for key, kind in types.items():
        if key not in obj:
            raise BadRecord(f"missing key {key!r}")
        if kind is not None and type(obj[key]) is not kind:
            want = {int: "an integer", list: "a list"}[kind]
            raise BadRecord(f'"{key}" must be {want}, got {json.dumps(obj[key], default=repr)}')
    return tuple(obj[key] for key in types)


def read_jsonl(path: str | Path) -> list[BpspInstance]:
    """Read instances from JSON lines of {"n": ..., "sequence": [...]}."""
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    n, sequence = json_fields(json.loads(line), n=int, sequence=None)
                except json.JSONDecodeError as exc:
                    raise BadRecord(f"line {lineno}: {exc.msg} at column {exc.colno}") from None
                except (ValueError, RecursionError) as exc:  # BadRecord, too long an int, too deep
                    raise BadRecord(f"line {lineno}: {exc}") from None
                try:
                    inst = validate(sequence)
                except (WrongMultiplicity, BadIdentifier) as exc:
                    raise type(exc)(f"line {lineno}: {exc}") from None
                if inst.n != n:
                    raise WrongMultiplicity(
                        f"line {lineno}: declared n={n} but sequence has {inst.n} cars"
                    )
                instances.append(inst)
        except UnicodeDecodeError as exc:
            raise BadRecord(f"not UTF-8 text: {exc.reason}") from None
    return instances


def write_jsonl(path: str | Path, instances: Iterable[BpspInstance]) -> None:
    """Write instances as JSON lines with stable bytes (sorted keys, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            obj = {"n": inst.n, "sequence": [int(c) for c in inst.sequence]}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
