"""One benchmark process: set-up, the timed closed loop, then the checks.

Started by ``run.py``; prints one JSON object as its last line.  Set-up is
the time from ``--t0`` (taken by the parent just before it started this
process) until the inputs exist and the warm-up is done.  The timed phase is
a closed loop: one instance after another, each timed on its own, and no
new instance starts once the next one would end past ``--seconds``.

In untraced runs each instance's time is also reported in units of a fixed
reference kernel timed at intervals in this process (see ``speedprobe.py``),
which cancels the drift of the shared machine's speed.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speedprobe import Sampler
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, Workload, lightcone_census, warm_up
from paintshop.core import instance_rng, random_instance
from paintshop.experiments import DEFAULT_SEEDS
from paintshop.ising import to_ising

#: Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "qaoa.lightcone_expectation.s": "s",
    "qaoa.edge_correlation.ms.p50": "ms",
    "qaoa.edge_correlation.ms.p90": "ms",
    "qaoa.edge_correlation.traced.s": "s",
    "qaoa.edge_correlation.statevector.s": "s",
    "qaoa.lightcone.couplings": "count",
    "qaoa.lightcone.traced_frac": "frac",
    "qaoa.lightcone.support_qubits.max": "qubits",
    "qaoa.lightcone.kept_qubits.max": "qubits",
    "qaoa.lightcone.state_bytes.max": "bytes",
    "qaoa.lightcone.unit_tree_frac": "frac",
    "qaoa.lightcone.repeat_shape_frac": "frac",
    "qaoa.expectation.s": "s",
    "qaoa.statevector.state_bytes": "bytes",
    "ioncompile.compile_qaoa.s": "s",
    "ioncompile.simulate_native.s": "s",
    "ioncompile.gates": "count",
    "ising.to_ising.s": "s",
    "ising.coupling_stats.s": "s",
    "heuristics.recursive_greedy.s": "s",
    "heuristics.greedy.s": "s",
    "heuristics.red_first.s": "s",
    "core.color_changes.s": "s",
    "core.random_instance.s": "s",
    "core.brute_force_opt.s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Record:
    idx: int
    start: float  # time.monotonic() when the instance started
    seconds: float
    out: dict | None
    error: str | None
    reference: float = 0.0  # median reference kernel time around the instance


def timed_loop(workload: Workload, pool: list, seconds: float, tr) -> list[Record]:
    """Closed loop over the pool; each instance's call is timed on its own."""
    records: list[Record] = []
    start = time.monotonic()
    for idx, word in enumerate(pool):
        if records and time.monotonic() - start + records[-1].seconds > seconds:
            break
        tr.instance = idx
        t0 = time.monotonic()
        try:
            out, error = workload.run(word, tr), None
        except Exception:  # a failing instance is counted, the run goes on
            out, error = None, traceback.format_exc()
        elapsed = time.monotonic() - t0
        out = None if out is None else workload.compact(out)
        records.append(Record(idx, t0, elapsed, out, error))
    tr.instance = None
    return records


def check_all(workload: Workload, pool: list, records: list[Record], seed: int) -> list[list[str]]:
    """Failure messages per record; a check that raises counts as a failure."""
    results = []
    for rec in records:
        if rec.error is not None:
            results.append([rec.error])
            continue
        try:
            results.append(workload.check(pool[rec.idx], rec.out, seed, rec.idx))
        except Exception:
            results.append([traceback.format_exc()])
    return results


def per_layer(tr: Tracer, runs: dict, traced: list[Record], base: list[Record],
              setup_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and census histograms of a traced run.

    ``runs`` maps each instance id to its (word, outputs), for the set-up's
    warm-up and the traced phase alike.  Every figure covers both, so each
    layer has a non-zero figure on every workload: set-up runs every
    pipeline once.
    """
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    self_times = tr.self_times()
    for name, busy in self_times.items():
        if f"{name}.s" in metrics:
            metrics[f"{name}.s"] = busy

    census = {}

    def lightcones(instance, p):
        if (instance, p) not in census:
            census[(instance, p)] = {
                c.edge: c for c in lightcone_census(to_ising(runs[instance][0]), p)
            }
        return census[(instance, p)]

    edge_ms = []
    engine_s = {"traced": 0.0, "statevector": 0.0}
    cones, seen, repeats = [], set(), 0
    dense_n = []
    for name, start, end, _, instance, attrs in tr.spans:
        if name == "qaoa.edge_correlation":
            cone = lightcones(instance, attrs["p"])[attrs["edge"]]
            engine_s[cone.engine] += end - start
            edge_ms.append(1e3 * (end - start))
        elif name == "qaoa.lightcone_expectation":
            # Counts over every lightcone of every evaluated graph, in run order.
            for c in lightcones(instance, attrs["p"]).values():
                cones.append(c)
                if c.shape is not None:
                    repeats += (attrs["p"], c.shape) in seen
                    seen.add((attrs["p"], c.shape))
        elif name == "qaoa.expectation":
            dense_n.append(runs[instance][0].n)
    metrics["qaoa.edge_correlation.traced.s"] = engine_s["traced"]
    metrics["qaoa.edge_correlation.statevector.s"] = engine_s["statevector"]
    if edge_ms:
        metrics["qaoa.edge_correlation.ms.p50"] = float(np.percentile(edge_ms, 50))
        metrics["qaoa.edge_correlation.ms.p90"] = float(np.percentile(edge_ms, 90))
    accepted = [c for c in cones if not c.rejected]
    if cones:
        metrics.update({
            "qaoa.lightcone.couplings": len(cones),
            "qaoa.lightcone.traced_frac": sum(c.engine == "traced" for c in accepted) / len(cones),
            "qaoa.lightcone.support_qubits.max": max(c.support for c in cones),
            "qaoa.lightcone.kept_qubits.max": max(c.kept for c in cones),
            "qaoa.lightcone.state_bytes.max": max((c.state_bytes for c in accepted), default=0),
            "qaoa.lightcone.unit_tree_frac": sum(c.shape is not None for c in cones) / len(cones),
            "qaoa.lightcone.repeat_shape_frac": repeats / len(cones),
        })
    if dense_n:
        metrics["qaoa.statevector.state_bytes"] = 16 * 2 ** max(dense_n)
    metrics["ioncompile.gates"] = sum(
        sum(out["gates"]) for _, out in runs.values() if out and "gates" in out
    )

    wall = setup_wall + sum(rec.seconds for rec in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(self_times.values())
    metrics["trace.overhead_ratio"] = (
        sum(rec.seconds for rec in traced) / sum(rec.seconds for rec in base)
    )
    histograms = {
        "support_qubits": dict(sorted(Counter(c.support for c in cones).items())),
        "kept_qubits": dict(sorted(Counter(c.kept for c in cones).items())),
        "unit_tree_shapes": len(seen),
        # A rejected lightcone raises SupportTooLarge and fails its instance,
        # so on a passing run this is 0; it is a count, not a metric.
        "rejected": len(cones) - len(accepted),
    }
    return metrics, histograms


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_only: bool = False, t0: float | None = None, out_dir: Path | None = None) -> dict:
    """Set up, measure and check one workload; the returned dict is printed."""
    tr = Tracer() if trace else NullTracer()
    setup_start = time.perf_counter()
    pool = []
    for idx in range(workload.pool):
        tr.instance = idx
        with tr.span("core.random_instance"):
            pool.append(random_instance(workload.n, instance_rng(seed, idx)))
    runs = warm_up(workload, tr)
    setup_wall = time.perf_counter() - setup_start
    result = {"setup_s": (time.monotonic() - t0) if t0 is not None else setup_wall}
    if setup_only:
        return result

    if trace:
        # Untraced first, then the same instances traced: the difference is
        # the tracing overhead.
        base = timed_loop(workload, pool, seconds / 2, NullTracer())
        records = timed_loop(workload, pool[: len(base)], float("inf"), tr)
    else:
        with Sampler() as sampler:
            base, records = [], timed_loop(workload, pool, seconds, tr)
        for rec in records:
            rec.seconds -= sampler.kernel_seconds(rec.start, rec.start + rec.seconds)
            rec.reference = sampler.reference(rec.start, rec.start + rec.seconds)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_all(workload, pool, base + records, seed)
    result.update({
        "seed": seed,
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "failures": [message for messages in failures for message in messages],
        "instances": len(records),
        "wall_s": statistics.median(rec.seconds for rec in records),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    })
    if not trace:
        result["wall_ref"] = statistics.median(rec.seconds / rec.reference for rec in records)
        result["reference_s"] = statistics.median(rec.reference for rec in records)
    else:
        runs.update((rec.idx, (pool[rec.idx], rec.out)) for rec in records)
        metrics, histograms = per_layer(tr, runs, records, base, setup_wall)
        result["per_layer"] = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in metrics.items()
        }
        result["census"] = histograms
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tr.write(out_dir / f"trace-{workload.name}-seed{seed}.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEEDS[workload.seed_key] if args.seed is None else args.seed
    result = run(workload, seed, args.seconds, bool(args.trace), args.setup_only, args.t0, args.out)
    for message in result.pop("failures", []):
        sys.stderr.write(message.rstrip() + "\n")
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
