"""The benchmark's workloads: per-instance pipelines, output checks, census.

Each pipeline mirrors the per-instance work of an ``experiments`` runner and
calls only the library's public functions, each call wrapped in a span.  The
library sees nothing but the generated words.  Every check computes its own
reference and runs after the timed phase, so it never adds to a timing.

Why these four workloads:

* ``table1-p2``: the paper's depth-2 number and the slowest acceptance
  criterion; nearly all time is the traced lightcone engine at 8 kept qubits.
  An engine rewrite shows here, a support or memo change barely does.
* ``table1-p1``: depth 1 at n=1000; the engine is tiny and most lightcones
  are unit trees of a few shapes, so support construction and memoization
  show here and kernel work barely does.
* ``classical-100k``: the Ising mapping and the heuristics at n=100 000;
  no QAOA, so a lightcone change must move nothing here.
* ``exact-n16``: the dense oracle, brute force, the trapped-ion compiler and
  the lightcone evaluator on small loopy supports, where the automatic rule
  mostly picks the statevector engine.
"""
from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from paintshop.core import (  # noqa: E402
    Coloring,
    brute_force_opt,
    color_changes,
    instance_rng,
    random_instance,
)
from paintshop.heuristics import (  # noqa: E402
    greedy,
    greedy_subsystem,
    recursive_greedy,
    red_first,
)
from paintshop.ioncompile import (  # noqa: E402
    compile_qaoa,
    gate_counts,
    simulate_native,
    state_fidelity,
)
from paintshop.ising import (  # noqa: E402
    adjacency_energy,
    coloring_to_spins,
    coupling_stats,
    to_ising,
)
import paintshop.qaoa.lightcone as lightcone_module  # noqa: E402
from paintshop.qaoa import (  # noqa: E402
    EnergySummary,
    color_change_vector,
    edge_correlation,
    expectation,
    lightcone_expectation,
    simulate_state,
    tree_params,
)

#: The library's default lightcone support cap (``support_cap=26``).
SUPPORT_CAP = 26
#: Largest support cross-checked with the statevector engine: a 20-qubit
#: support costs about 1 s and 120 MiB, a 22-qubit one 6 s and 450 MiB.
SV_CHECK_QUBITS = 20
#: Agreement required between independent exact evaluations.
TOLERANCE = 1e-9

HEURISTICS = (
    ("greedy", greedy),
    ("red_first", red_first),
    ("recursive_greedy", recursive_greedy),
)


def traced_lightcone_expectation(graph, params, tr) -> EnergySummary:
    """The library's ``lightcone_expectation`` inside one span.

    In traced runs each coupling also gets a span: the library's loop looks
    ``edge_correlation`` up as a module global on every coupling, so that
    global is wrapped for the length of the call and restored afterwards.
    """
    with tr.span("qaoa.lightcone_expectation", p=params.p):
        if not tr.enabled:
            return lightcone_expectation(graph, params)
        original = lightcone_module.edge_correlation

        def spanned(graph, edge, params, *args, **kwargs):
            with tr.span("qaoa.edge_correlation", p=params.p, edge=edge):
                return original(graph, edge, params, *args, **kwargs)

        lightcone_module.edge_correlation = spanned
        try:
            return lightcone_expectation(graph, params)
        finally:
            lightcone_module.edge_correlation = original


# --- pipelines: word -> outputs, every library call inside a span ---------


def table1_pipeline(p: int):
    params = tree_params(p)

    def run(word, tr) -> dict:
        with tr.span("ising.to_ising"):
            graph = to_ising(word)
        summary = traced_lightcone_expectation(graph, params, tr)
        return {
            "mean_adj": summary.mean_adjacency_energy,
            "mean_cc": summary.mean_color_changes,
        }

    return run


def classical_pipeline(word, tr) -> dict:
    with tr.span("ising.to_ising"):
        graph = to_ising(word)
    with tr.span("ising.coupling_stats"):
        stats = coupling_stats([word])
    out = {
        "couplings": len(graph.couplings),
        "pair_count": stats.pair_count,
        "zero_merged": stats.zero_merged,
    }
    for name, solver in HEURISTICS:
        with tr.span(f"heuristics.{name}"):
            coloring = solver(word)
        with tr.span("core.color_changes"):
            out[name] = (coloring.first_color, color_changes(word, coloring))
    return out


def exact_pipeline(word, tr) -> dict:
    with tr.span("ising.to_ising"):
        graph = to_ising(word)
    dense = []
    for p in range(1, 6):
        with tr.span("qaoa.expectation", p=p):
            dense.append(expectation(graph, tree_params(p)).mean_color_changes)
    lightcone = [
        traced_lightcone_expectation(graph, tree_params(p), tr).mean_color_changes
        for p in (1, 2)
    ]
    with tr.span("core.brute_force_opt"):
        oracle = brute_force_opt(word)
    gates, native = [], []
    for p in (1, 2, 3):
        with tr.span("ioncompile.compile_qaoa", p=p):
            circuit = compile_qaoa(graph, tree_params(p))
        with tr.span("ioncompile.simulate_native", p=p):
            native.append(simulate_native(circuit).amplitudes)
        gates.append(circuit.depth)
    return {
        "dense": dense,
        "lightcone": lightcone,
        "opt": oracle.opt_changes,
        "gates": gates,
        "native": native,
    }


def _digest(amplitudes: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(amplitudes).tobytes()).hexdigest()


def compact_exact(out: dict) -> dict:
    """Replace the 1 MiB native states by digests once the timer has stopped."""
    return {**out, "native": [_digest(a) for a in out["native"]]}


# --- checks: (word, outputs, seed, instance index) -> failure messages ------


def table1_check(p: int, samples: int):
    params = tree_params(p)

    def check(word, out, seed: int, idx: int) -> list[str]:
        n = word.n
        failures = []
        graph = to_ising(word)
        # The sum again, coupling by coupling, without lightcone_expectation.
        adjacency = graph.adjacency_lists()
        mean_adj = float(graph.constant)
        for edge in sorted(graph.couplings):
            corr = edge_correlation(graph, edge, params, _adjacency=adjacency)
            mean_adj += graph.couplings[edge] * corr
        if abs(out["mean_adj"] - mean_adj) > TOLERANCE:
            failures.append(
                f"mean adjacency energy {out['mean_adj']} != per-coupling sum {mean_adj}"
            )
        identity = (out["mean_adj"] + 2 * n - 1) / 2
        if abs(out["mean_cc"] - identity) > TOLERANCE:
            failures.append(f"cost {out['mean_cc']} != (adj + 2n - 1)/2 = {identity}")
        if not 0 <= out["mean_cc"] <= 2 * n - 1:
            failures.append(f"cost {out['mean_cc']} outside [0, {2 * n - 1}]")
        small = [
            c.edge for c in lightcone_census(graph, p) if c.support <= SV_CHECK_QUBITS
        ]
        rng = np.random.default_rng([seed, idx, p])
        picks = rng.choice(len(small), size=min(samples, len(small)), replace=False)
        for k in sorted(picks):
            edge = small[k]
            traced = edge_correlation(graph, edge, params, engine="traced")
            dense = edge_correlation(graph, edge, params, engine="statevector")
            if abs(traced - dense) > TOLERANCE:
                failures.append(f"coupling {edge}: traced {traced} != statevector {dense}")
        return failures

    return check


def classical_check(word, out, seed: int, idx: int) -> list[str]:
    n = word.n
    failures = []
    graph = to_ising(word)
    if out["couplings"] != len(graph.couplings):
        failures.append(f"{out['couplings']} couplings, expected {len(graph.couplings)}")
    if out["pair_count"] != out["couplings"] + out["zero_merged"]:
        failures.append("coupling_stats pair count != couplings + cancelled pairs")
    for name, _ in HEURISTICS:
        first_color, changes = out[name]
        if not np.isin(first_color, (0, 1)).all():
            failures.append(f"{name}: coloring has values outside {{0, 1}}")
            continue
        spins = coloring_to_spins(Coloring(first_color))
        expected = (adjacency_energy(graph, spins) + 2 * n - 1) // 2
        if changes != expected:
            failures.append(f"{name}: {changes} color changes, energy gives {expected}")
        if name == "greedy":
            ground = adjacency_energy(greedy_subsystem(word), spins)
            if ground != -(n - 1):
                failures.append(f"greedy subsystem energy {ground} != {-(n - 1)}")
    return failures


def exact_check(word, out, seed: int, idx: int) -> list[str]:
    n = word.n
    failures = []
    graph = to_ising(word)
    for k, p in enumerate((1, 2)):
        if abs(out["lightcone"][k] - out["dense"][p - 1]) > TOLERANCE:
            failures.append(
                f"p={p}: lightcone {out['lightcone'][k]} != dense {out['dense'][p - 1]}"
            )
    best = int(color_change_vector(word).min())
    if out["opt"] != best:
        failures.append(f"brute force optimum {out['opt']} != enumerated {best}")
    for name, solver in HEURISTICS:
        changes = color_changes(word, solver(word))
        if changes < out["opt"]:
            failures.append(f"{name} cost {changes} below the optimum {out['opt']}")
    m = len(graph.couplings)
    for k, p in enumerate((1, 2, 3)):
        params = tree_params(p)
        circuit = compile_qaoa(graph, params)
        counts = gate_counts(circuit)
        if (counts.doubles, counts.singles) != (p * m, (p + 1) * n):
            failures.append(f"p={p}: gate counts {counts} != {p * m} + {(p + 1) * n}")
        state = simulate_native(circuit)
        if _digest(state.amplitudes) != out["native"][k]:
            failures.append(f"p={p}: native state differs from the timed run's")
        fidelity = state_fidelity(state, simulate_state(graph, params))
        if fidelity < 1 - TOLERANCE:
            failures.append(f"p={p}: native fidelity {fidelity}")
    return failures


# --- lightcone census: deterministic counts from the benchmark's own BFS ----


@dataclass(frozen=True)
class Lightcone:
    edge: tuple
    support: int
    kept: int
    engine: str
    rejected: bool
    state_bytes: int
    shape: tuple | None


def lightcone_census(graph, p: int) -> list[Lightcone]:
    """Per coupling, in sorted order: support and kept-ball sizes, the engine
    the automatic rule picks, and the gauge-fixed shape of unit-tree lightcones.

    The lightcone is the radius-p ball with the couplings that touch its
    radius-(p-1) part; couplings between two boundary qubits never act on
    <Z_i Z_j>.  A unit tree has only |J| = 1 couplings and no cycle, so a
    gauge makes it ferromagnetic and its unlabelled shape fixes |<Z_i Z_j>|.
    """
    adjacency = graph.adjacency_lists()
    census = []
    for edge in sorted(graph.couplings):
        dist = {edge[0]: 0, edge[1]: 0}
        frontier = list(edge)
        for d in range(1, p + 1):
            grown = []
            for u in frontier:
                for v, _ in adjacency[u]:
                    if v not in dist:
                        dist[v] = d
                        grown.append(v)
            frontier = grown
        support = len(dist)
        kept = sum(1 for d in dist.values() if d < p)
        engine = "traced" if 2 * kept < support else "statevector"
        state_bytes = 16 * (4**kept if engine == "traced" else 2**support)
        couplings = {
            (min(u, v), max(u, v)): val
            for u, d in dist.items()
            if d < p
            for v, val in adjacency[u]
        }
        unit_tree = len(couplings) == support - 1 and all(
            abs(val) == 1 for val in couplings.values()
        )
        census.append(
            Lightcone(
                edge=edge,
                support=support,
                kept=kept,
                engine=engine,
                rejected=support > SUPPORT_CAP,
                state_bytes=state_bytes,
                shape=_edge_rooted_shape(couplings, edge) if unit_tree else None,
            )
        )
    return census


def _edge_rooted_shape(couplings: dict, edge: tuple) -> tuple:
    """Canonical form of a tree rooted at one of its edges (AHU encoding)."""
    neighbours: dict = {}
    for a, b in couplings:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)

    def canon(u, parent) -> str:
        return "(" + "".join(sorted(canon(v, u) for v in neighbours[u] if v != parent)) + ")"

    return tuple(sorted((canon(edge[0], edge[1]), canon(edge[1], edge[0]))))


# --- workload table ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``pool`` words of ``n`` cars are generated in set-up from
    ``core.instance_rng(seed, index)``; the timed loop stops early if it
    runs out of them.  ``warm_n`` sizes this workload's own warm-up word.
    """

    name: str
    n: int
    seed_key: str
    pool: int
    warm_n: int
    depths: tuple
    run: Callable
    check: Callable
    compact: Callable = field(default=lambda out: out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-p2", 300, "table1-p2", pool=4, warm_n=16, depths=(2,),
            run=table1_pipeline(2), check=table1_check(2, samples=2),
        ),
        Workload(
            "table1-p1", 1000, "table1-p1", pool=64, warm_n=200, depths=(1,),
            run=table1_pipeline(1), check=table1_check(1, samples=8),
        ),
        Workload(
            "classical-100k", 100_000, "heuristic-asymptotics", pool=16,
            warm_n=10_000, depths=(), run=classical_pipeline, check=classical_check,
        ),
        Workload(
            "exact-n16", 16, "fig2", pool=64, warm_n=16, depths=(1, 2),
            run=exact_pipeline, check=exact_check, compact=compact_exact,
        ),
    )
}

#: Size of the word on which set-up runs every other workload's pipeline
#: once, so each layer's first-call costs are paid before timing.
SMALL_N = 8
#: Warm-up words are the same in every run, so set-up cost does not vary
#: with the seed; timed words come from the run's seed.
WARM_SEED = 0


def warm_up(workload: Workload, tr) -> dict:
    """Run every pipeline once on a warm-up word; return (word, outputs) by id."""
    runs = {}
    for other in WORKLOADS.values():
        n = workload.warm_n if other is workload else SMALL_N
        tr.instance = f"warm-up/{other.name}"
        with tr.span("core.random_instance"):
            word = random_instance(n, instance_rng(WARM_SEED, 0))
        runs[tr.instance] = (word, other.compact(other.run(word, tr)))
    tr.instance = None
    return runs
