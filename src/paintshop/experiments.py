"""Named benchmark scenarios with tolerance verdicts.

Each runner returns (rows, summary): deterministic per-instance rows for the
CSV and a JSON-ready summary whose ``passed`` field carries the tolerance
verdict.  Instances are drawn from independent per-index seed streams, so
row i does not depend on how many rows were requested.
"""
from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np

from .core import (
    color_changes,
    hard_instance,
    instance_rng,
    random_instance,
)
from .heuristics import SOLVERS, greedy
from .ising import _stats, coupling_stats, to_ising
from .qaoa import (
    expectation,
    lightcone_expectation,
    p_alpha,
    simulate_state,
    tree_params,
)

#: Master seeds of table1 by depth, and of the two experiments whose words
#: perfbench replays; every other experiment's seed default is in its signature.
DEFAULT_SEEDS = {
    "table1-p1": 101,
    "table1-p2": 102,
    "fig2": 103,
    "heuristic-asymptotics": 104,
}


def _instances(n: int, count: int, seed: int):
    for idx in range(count):
        yield idx, random_instance(n, instance_rng(seed, idx))


def run_table1(
    p: int,
    n: int | None = None,
    count: int | None = None,
    seed: int | None = None,
) -> tuple[list, dict]:
    """Mean cost per car of the fixed schedule at depth p, via lightcones."""
    name = f"table1-p{p}"
    seed = DEFAULT_SEEDS[name] if seed is None else seed
    params = tree_params(p)
    # Per depth: default n and count (a depth-2 word costs far more), window.
    table = {1: (1000, 20, (0.665, 0.685)), 2: (300, 10, (0.548, 0.588))}
    default_n, default_count, window = table[p]
    n = default_n if n is None else n
    count = default_count if count is None else count
    rows = []
    total = 0.0
    for idx, inst in _instances(n, count, seed):
        summary = lightcone_expectation(to_ising(inst), params)
        total += summary.mean_color_changes / n
        rows.append(
            {
                "instance_id": idx,
                "n": n,
                "p": p,
                "method": "lightcone",
                "mean_energy_adj": summary.mean_adjacency_energy,
                "mean_color_changes": summary.mean_color_changes,
            }
        )
    mean_ratio = total / count
    summary = {
        "experiment": name,
        "n": n,
        "count": count,
        "seed": seed,
        "p": p,
        "mean_color_changes_per_car": mean_ratio,
        "window": list(window),
        "passed": bool(window[0] <= mean_ratio <= window[1]),
    }
    return rows, summary


def run_fig2(
    n: int = 16, count: int = 100, seed: int = DEFAULT_SEEDS["fig2"]
) -> tuple[list, dict]:
    """Exact mean cost of depths 1..5 against the greedy mean at fixed n."""
    depths = (1, 2, 3, 4, 5)
    schedules = {p: tree_params(p) for p in depths}
    rows = []
    qaoa_totals = {p: 0.0 for p in depths}
    greedy_total = 0
    for idx, inst in _instances(n, count, seed):
        graph = to_ising(inst)
        row = {"instance_id": idx, "n": n}
        row["greedy"] = color_changes(inst, greedy(inst))
        greedy_total += row["greedy"]
        for p in depths:
            mean_dc = expectation(graph, schedules[p]).mean_color_changes
            row[f"qaoa_p{p}"] = mean_dc
            qaoa_totals[p] += mean_dc
        rows.append(row)
    means = {p: qaoa_totals[p] / count for p in depths}
    greedy_mean = greedy_total / count
    chain = all(means[p] > means[p + 1] for p in depths[:-1])
    beats_greedy = means[4] < greedy_mean and means[5] < greedy_mean
    greedy_ok = 0.9 * (n / 2) <= greedy_mean <= 1.1 * (n / 2)
    summary = {
        "experiment": "fig2",
        "n": n,
        "count": count,
        "seed": seed,
        "greedy_mean": greedy_mean,
        "qaoa_means": {str(p): means[p] for p in depths},
        "strictly_improving_with_depth": bool(chain),
        "depth4_and_5_beat_greedy": bool(beats_greedy),
        "greedy_within_ten_percent_of_half_n": bool(greedy_ok),
        "passed": bool(chain and beats_greedy and greedy_ok),
    }
    return rows, summary


def run_heuristic_asymptotics(
    n: int = 10_000, count: int = 100, seed: int = DEFAULT_SEEDS["heuristic-asymptotics"]
) -> tuple[list, dict]:
    """Mean cost per car of the three sequential heuristics at large n."""
    targets = {"greedy": 0.5, "red-first": 2 / 3, "recursive-greedy": 0.4}
    rows = []
    totals = {algo: 0 for algo in SOLVERS}
    for idx, inst in _instances(n, count, seed):
        for algo, solver in SOLVERS.items():
            dc = color_changes(inst, solver(inst))
            totals[algo] += dc
            rows.append(
                {"instance_id": idx, "n": n, "algo": algo, "color_changes": dc}
            )
    means = {algo: totals[algo] / (count * n) for algo in SOLVERS}
    deviations = {algo: abs(means[algo] - targets[algo]) for algo in SOLVERS}
    summary = {
        "experiment": "heuristic-asymptotics",
        "n": n,
        "count": count,
        "seed": seed,
        "mean_color_changes_per_car": means,
        "targets": targets,
        "tolerance": 0.02,
        "passed": bool(all(dev <= 0.02 for dev in deviations.values())),
    }
    return rows, summary


def run_coupling_stats(
    n: int = 100_000, count: int = 100, seed: int = 105
) -> tuple[list, dict]:
    """Merged coupling value distribution and mean degree at large n."""
    rows = []
    hist = Counter()
    for idx, inst in _instances(n, count, seed):
        stats = coupling_stats([inst])
        hist.update(stats.histogram)
        rows.append(
            {
                "instance_id": idx,
                "n": n,
                "pairs": stats.pair_count,
                "frac_minus_one": stats.frac_minus_one,
                "frac_plus_one": stats.frac_plus_one,
                "frac_mag_two": stats.frac_mag_two,
                "mean_degree": stats.mean_degree,
            }
        )
    stats = _stats(hist, n * count)
    ok = (
        abs(stats.frac_minus_one - 2 / 3) <= 0.01
        and abs(stats.frac_plus_one - 1 / 3) <= 0.01
        and stats.frac_mag_two <= 0.01
        and stats.mean_degree >= 3.99
    )
    summary = {
        "experiment": "coupling-stats",
        "n": n,
        "count": count,
        "seed": seed,
        "histogram": {str(k): v for k, v in stats.histogram.items()},
        "frac_minus_one": stats.frac_minus_one,
        "frac_plus_one": stats.frac_plus_one,
        "frac_mag_two": stats.frac_mag_two,
        "mean_degree": stats.mean_degree,
        "zero_merged": stats.zero_merged,
        "passed": bool(ok),
    }
    return rows, summary


def run_fig6(
    sizes: tuple = (10, 12, 14, 16, 18, 20), p: int = 1, alpha: float = 5.0
) -> tuple[list, dict]:
    """Approximation mass on the single-optimum ladder words.

    Deterministic (no randomness): the mass within alpha times the optimum
    decays with size; the fitted slope of its logarithm is the headline.
    """
    params = tree_params(p)
    rows = []
    values = []
    for n in sizes:
        inst = hard_instance(n)
        state = simulate_state(to_ising(inst), params)
        mass = p_alpha(inst, state, alpha)
        values.append(mass)
        rows.append({"n": n, "p": p, "alpha": alpha, "p_alpha": mass})
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    slope = float(np.polyfit(np.array(sizes, dtype=float), np.log(values), 1)[0])
    summary = {
        "experiment": "fig6",
        "sizes": list(sizes),
        "p": p,
        "alpha": alpha,
        "p_alpha": values,
        "strictly_decreasing": bool(decreasing),
        "log_slope": slope,
        "passed": bool(decreasing and slope < 0),
    }
    return rows, summary


def run_fig3(
    sizes: tuple = (4, 5, 6, 7, 8, 9, 10),
    count: int = 300,
    p: int = 1,
    alphas: tuple = (1.0, 2.0, 3.0),
    seed: int = 106,
) -> tuple[list, dict]:
    """Distribution of approximation mass over random words by size.

    Headline: the hardest instances get harder with size, i.e. the fitted
    slope of log(min p_alpha) versus n at the tightest alpha is negative.
    """
    params = tree_params(p)
    rows = []
    minima = {alpha: [] for alpha in alphas}
    for n in sizes:
        per_alpha = {alpha: [] for alpha in alphas}
        for idx in range(count):
            inst = random_instance(n, instance_rng(seed, n * 100_000 + idx))
            state = simulate_state(to_ising(inst), params)
            row = {"instance_id": idx, "n": n, "p": p}
            for alpha in alphas:
                mass = p_alpha(inst, state, alpha)
                row[f"p_alpha_{alpha:g}"] = mass
                per_alpha[alpha].append(mass)
            rows.append(row)
        for alpha in alphas:
            minima[alpha].append(min(per_alpha[alpha]))
    tightest = min(alphas)
    slope = float(
        np.polyfit(np.array(sizes, dtype=float), np.log(minima[tightest]), 1)[0]
    )
    summary = {
        "experiment": "fig3",
        "sizes": list(sizes),
        "count": count,
        "seed": seed,
        "p": p,
        "alphas": list(alphas),
        "min_p_alpha": {f"{alpha:g}": minima[alpha] for alpha in alphas},
        "log_slope_tightest_alpha": slope,
        "passed": bool(slope < 0),
    }
    return rows, summary


#: Every named experiment and its runner, in the order the docs list them.
#: A runner's keyword parameters decide which CLI flags the experiment takes.
EXPERIMENTS = {
    "table1-p1": partial(run_table1, 1),
    "table1-p2": partial(run_table1, 2),
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig6": run_fig6,
    "coupling-stats": run_coupling_stats,
    "heuristic-asymptotics": run_heuristic_asymptotics,
}
