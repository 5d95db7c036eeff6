"""Command line interface.

Subcommands: ``gen`` (write random instances as JSONL), ``solve`` (classical
algorithms to CSV), ``qaoa`` (circuit expectations or sampled estimates to
CSV), ``experiment`` (named benchmark scenarios with tolerance verdicts).

Exit codes: 0 success, 2 usage or input error, 1 tolerance failure in
experiment mode.  Identical command lines produce identical output bytes
except for the wall_time_ms columns, which are isolated at the row ends.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import experiments
from .core import (
    BadIdentifier,
    BadRecord,
    TooLarge,
    WrongMultiplicity,
    brute_force_opt,
    color_changes,
    instance_rng,
    random_guess_expectation,
    random_instance,
    read_jsonl,
    write_jsonl,
)
from .heuristics import greedy, recursive_greedy, red_first
from .ising import NonUnitCoupling, NotATree, to_ising
from .qaoa import (
    DegenerateBaseline,
    SupportTooLarge,
    UnknownParams,
    color_change_vector,
    expectation,
    lightcone_expectation,
    simulate_state,
    tree_params,
)
from .qaoa.statevector import _sample_indices


class UnknownAlgo(ValueError):
    """Requested solver name is not provided."""


ALGOS = ("greedy", "red-first", "recursive-greedy", "brute-force", "random-baseline")

EXPERIMENTS = (
    "fig2",
    "table1-p1",
    "table1-p2",
    "fig3",
    "fig6",
    "coupling-stats",
    "heuristic-asymptotics",
)

_USAGE_ERRORS = (
    WrongMultiplicity,
    BadIdentifier,
    BadRecord,
    TooLarge,
    UnknownParams,
    UnknownAlgo,
    SupportTooLarge,
    NotATree,
    NonUnitCoupling,
    DegenerateBaseline,
    OSError,
    json.JSONDecodeError,
)


def solve_instance(instance, algo: str, *, cap_qubits: int = 24):
    """Cost of one classical solver; floats only for the analytic baseline."""
    if algo == "greedy":
        return color_changes(instance, greedy(instance))
    if algo == "red-first":
        return color_changes(instance, red_first(instance))
    if algo == "recursive-greedy":
        return color_changes(instance, recursive_greedy(instance))
    if algo == "brute-force":
        return brute_force_opt(instance, cap_cars=cap_qubits).opt_changes
    if algo == "random-baseline":
        return random_guess_expectation(instance)
    raise UnknownAlgo(f"unknown algo {algo!r}; choose from {', '.join(ALGOS)}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_csv(path: Path, fieldnames: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_gen(args) -> int:
    instances = [
        random_instance(args.n, instance_rng(args.seed, idx))
        for idx in range(args.count)
    ]
    write_jsonl(args.outfile, instances)
    return 0


def _cmd_solve(args) -> int:
    instances = read_jsonl(args.infile)
    rows = []
    for idx, inst in enumerate(instances):
        start = time.perf_counter()
        dc = solve_instance(inst, args.algo, cap_qubits=args.cap_qubits)
        elapsed = (time.perf_counter() - start) * 1000
        rows.append(
            {
                "instance_id": idx,
                "n": inst.n,
                "algo": args.algo,
                "color_changes": dc,
                "wall_time_ms": round(elapsed, 3),
            }
        )
    _write_csv(
        Path(args.outfile),
        ["instance_id", "n", "algo", "color_changes", "wall_time_ms"],
        rows,
    )
    return 0


def _cmd_qaoa(args) -> int:
    instances = read_jsonl(args.infile)
    params = tree_params(args.p)
    rows = []
    cap = args.cap_qubits or (26 if args.method == "lightcone" else 22)
    for idx, inst in enumerate(instances):
        graph = to_ising(inst)
        start = time.perf_counter()
        if args.shots:
            state = simulate_state(graph, params, cap_qubits=cap)
            indices = _sample_indices(state, args.shots, instance_rng(args.seed, idx))
            mean_dc = float(color_change_vector(inst)[indices].mean())
            mean_adj = 2 * mean_dc - (2 * inst.n - 1)
        else:
            if args.method == "lightcone":
                summary = lightcone_expectation(graph, params, support_cap=cap)
            else:
                summary = expectation(graph, params, cap_qubits=cap)
            mean_adj = summary.mean_adjacency_energy
            mean_dc = summary.mean_color_changes
        elapsed = (time.perf_counter() - start) * 1000
        rows.append(
            {
                "instance_id": idx,
                "n": inst.n,
                "p": args.p,
                "method": args.method,
                "mean_energy_adj": mean_adj,
                "mean_color_changes": mean_dc,
                "wall_time_ms": round(elapsed, 3),
            }
        )
    _write_csv(
        Path(args.outfile),
        [
            "instance_id",
            "n",
            "p",
            "method",
            "mean_energy_adj",
            "mean_color_changes",
            "wall_time_ms",
        ],
        rows,
    )
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    if name == "table1-p1":
        rows, summary = experiments.run_table1(
            1,
            n=args.n or 1000,
            count=args.count or 20,
            seed=args.seed,
            support_cap=args.cap_qubits or 26,
        )
    elif name == "table1-p2":
        rows, summary = experiments.run_table1(
            2,
            n=args.n or 300,
            count=args.count or 10,
            seed=args.seed,
            support_cap=args.cap_qubits or 26,
        )
    elif name == "fig2":
        rows, summary = experiments.run_fig2(
            n=args.n or 16, count=args.count or 100, seed=args.seed
        )
    elif name == "fig3":
        rows, summary = experiments.run_fig3(
            count=args.count or 300, seed=args.seed
        )
    elif name == "fig6":
        rows, summary = experiments.run_fig6(
            p=args.p or 1, alpha=args.alpha if args.alpha is not None else 5.0
        )
    elif name == "coupling-stats":
        rows, summary = experiments.run_coupling_stats(
            n=args.n or 100_000, count=args.count or 100, seed=args.seed
        )
    elif name == "heuristic-asymptotics":
        rows, summary = experiments.run_heuristic_asymptotics(
            n=args.n or 10_000, count=args.count or 100, seed=args.seed
        )
    else:  # unreachable behind argparse choices
        raise UnknownAlgo(f"unknown experiment {name!r}")
    outdir = Path(args.outfile)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / f"{name}.csv", list(rows[0].keys()), rows)
    with open(outdir / f"{name}-summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    verdict = "pass" if summary["passed"] else "FAIL"
    print(f"{name}: {verdict} (summary in {outdir / f'{name}-summary.json'})")
    return 0 if summary["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paintshop",
        description="Binary paint shop solvers, QAOA simulation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write random instances as JSON lines")
    gen.add_argument("--n", type=_positive_int, required=True, help="cars per instance")
    gen.add_argument("--count", type=_positive_int, default=1)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--out", dest="outfile", required=True)

    solve = sub.add_parser("solve", help="run a classical solver over instances")
    solve.add_argument("--algo", choices=ALGOS, required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out", dest="outfile", required=True)
    solve.add_argument("--cap-qubits", type=_positive_int, default=24,
                       help="enumeration cap for brute-force")

    qaoa = sub.add_parser("qaoa", help="circuit expectations over instances")
    qaoa.add_argument("--p", type=int, required=True)
    qaoa.add_argument("--method", choices=("statevector", "lightcone"),
                      default="statevector")
    qaoa.add_argument("--shots", type=_nonnegative_int, default=0,
                      help="0 for exact expectations, else sampled estimates")
    qaoa.add_argument("--seed", type=_nonnegative_int, default=0,
                      help="sampling seed")
    qaoa.add_argument("--in", dest="infile", required=True)
    qaoa.add_argument("--out", dest="outfile", required=True)
    qaoa.add_argument("--cap-qubits", type=_positive_int, default=None,
                      help="qubit cap (default 22 statevector, 26 lightcone)")

    experiment = sub.add_parser("experiment", help="named benchmark scenario")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--out", dest="outfile", required=True,
                            help="output directory")
    experiment.add_argument("--n", type=_positive_int, default=None)
    experiment.add_argument("--count", type=_positive_int, default=None)
    experiment.add_argument("--seed", type=_nonnegative_int, default=None)
    experiment.add_argument("--p", type=int, default=None)
    experiment.add_argument("--alpha", type=float, default=None)
    experiment.add_argument("--cap-qubits", type=_positive_int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "qaoa" and args.method == "lightcone" and args.shots:
        parser.error("--shots requires --method statevector")
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "qaoa": _cmd_qaoa,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
