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
import inspect
import json
import math
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
from .heuristics import SOLVERS
from .ising import NoCouplings, to_ising
from .qaoa import (
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


class FlagNotTaken(ValueError):
    """An experiment flag was set that the experiment's runner does not take."""


ALGOS = (*SOLVERS, "brute-force", "random-baseline")

_USAGE_ERRORS = (
    WrongMultiplicity,
    BadIdentifier,
    BadRecord,
    TooLarge,
    UnknownParams,
    UnknownAlgo,
    FlagNotTaken,
    NoCouplings,
    OSError,
)


def _given(**options) -> dict:
    """The options that are set; an unset (None) one keeps the library default."""
    return {key: value for key, value in options.items() if value is not None}


def solve_instance(instance, algo: str, *, cap_qubits: int | None = None):
    """Cost of one classical solver; floats only for the analytic baseline.

    ``cap_qubits`` caps brute-force enumeration; None keeps brute_force_opt's.
    """
    if algo in SOLVERS:
        return color_changes(instance, SOLVERS[algo](instance))
    if algo == "brute-force":
        return brute_force_opt(instance, **_given(cap_cars=cap_qubits)).opt_changes
    if algo == "random-baseline":
        return random_guess_expectation(instance)
    raise UnknownAlgo(f"unknown algo {algo!r}; choose from {', '.join(ALGOS)}")


def _at_least(low: int, kind=int):
    """An argparse type: a finite ``kind`` value >= low, else a usage error."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be >= {low} and finite, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


#: Experiment flags: the runner keyword each one sets, and its type.  A flag
#: is passed only when set, so every default comes from the runner.
_EXPERIMENT_FLAGS = {
    "--n": ("n", _at_least(1)),
    "--count": ("count", _at_least(1)),
    "--seed": ("seed", _at_least(0)),
    "--p": ("p", int),
    "--alpha": ("alpha", _at_least(1, float)),
}


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


def _per_word(args, fields: list, evaluate) -> int:
    """Write ``args.infile``'s words to ``args.outfile`` as CSV rows: index, n, the
    ``fields`` that ``evaluate(index, word)`` returns, and that call's wall time."""
    header = ["instance_id", "n", *fields, "wall_time_ms"]
    rows = []
    for idx, inst in enumerate(read_jsonl(args.infile)):
        start = time.perf_counter()
        values = evaluate(idx, inst)
        elapsed = round((time.perf_counter() - start) * 1000, 3)
        rows.append(dict(zip(header, (idx, inst.n, *values, elapsed))))
    _write_csv(Path(args.outfile), header, rows)
    return 0


def _cmd_solve(args) -> int:
    return _per_word(args, ["algo", "color_changes"], lambda idx, inst: (
        args.algo, solve_instance(inst, args.algo, cap_qubits=args.cap_qubits)))


def _cmd_qaoa(args) -> int:
    params = tree_params(args.p)

    def evaluate(idx, inst):
        graph = to_ising(inst)
        if args.shots:
            state = simulate_state(graph, params, **_given(cap_qubits=args.cap_qubits))
            indices = _sample_indices(state, args.shots, instance_rng(args.seed, idx))
            mean_dc = float(color_change_vector(inst)[indices].mean())
            return args.p, args.method, 2 * mean_dc - (2 * inst.n - 1), mean_dc
        if args.method == "lightcone":
            summary = lightcone_expectation(graph, params, **_given(support_cap=args.cap_qubits))
        else:
            summary = expectation(graph, params, **_given(cap_qubits=args.cap_qubits))
        return args.p, args.method, summary.mean_adjacency_energy, summary.mean_color_changes

    return _per_word(args, ["p", "method", "mean_energy_adj", "mean_color_changes"], evaluate)


def _cmd_experiment(args) -> int:
    name = args.name
    runner = experiments.EXPERIMENTS[name]
    taken = inspect.signature(runner).parameters
    options = {}
    for flag, (keyword, _) in _EXPERIMENT_FLAGS.items():
        if keyword in args:
            if keyword not in taken:
                raise FlagNotTaken(f"{name} does not take {flag}")
            options[keyword] = getattr(args, keyword)
    rows, summary = runner(**options)
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
    gen.add_argument("--n", type=_at_least(1), required=True, help="cars per instance")
    gen.add_argument("--count", type=_at_least(1), default=1)
    gen.add_argument("--seed", type=_at_least(0), default=0)
    gen.add_argument("--out", dest="outfile", required=True)
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="run a classical solver over instances")
    solve.add_argument("--algo", choices=ALGOS, required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out", dest="outfile", required=True)
    solve.add_argument("--cap-qubits", type=_at_least(1),
                       help="enumeration cap for brute-force (default: the oracle's)")
    solve.set_defaults(run=_cmd_solve)

    qaoa = sub.add_parser("qaoa", help="circuit expectations over instances")
    qaoa.add_argument("--p", type=int, required=True)
    qaoa.add_argument("--method", choices=("statevector", "lightcone"),
                      default="statevector")
    qaoa.add_argument("--shots", type=_at_least(0), default=0,
                      help="0 for exact expectations, else sampled estimates")
    qaoa.add_argument("--seed", type=_at_least(0), default=0,
                      help="sampling seed")
    qaoa.add_argument("--in", dest="infile", required=True)
    qaoa.add_argument("--out", dest="outfile", required=True)
    qaoa.add_argument("--cap-qubits", type=_at_least(1),
                      help="qubit cap (default: the chosen method's)")
    qaoa.set_defaults(run=_cmd_qaoa)

    experiment = sub.add_parser("experiment", help="named benchmark scenario")
    experiment.add_argument("name", choices=experiments.EXPERIMENTS)
    experiment.add_argument("--out", dest="outfile", required=True,
                            help="output directory")
    for flag, (keyword, kind) in _EXPERIMENT_FLAGS.items():
        experiment.add_argument(flag, dest=keyword, type=kind, metavar=flag[2:].upper(),
                                default=argparse.SUPPRESS)
    experiment.set_defaults(run=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "qaoa" and args.method == "lightcone" and args.shots:
        parser.error("--shots requires --method statevector")
    try:
        return args.run(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
