"""Seeded benchmark of the paintshop library: one command, four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads are described in ``workloads.py``.  Load model: one process runs
a closed loop, one instance after another, with BLAS pinned to one thread.

With ``--trace 0`` the last line of output reports the end-to-end metrics:

* ``wall_ref``: median over the timed phase's instances of the instance's
  wall time divided by the wall time of a fixed reference kernel timed at
  intervals in the same process (see ``speedprobe.py``); the raw median seconds
  per instance (``wall_s``) and of the kernel go to the metadata line;
* ``setup_s``: median over several fresh processes of interpreter start,
  imports, input generation and warm-up;
* ``peak_rss_mib``: peak resident memory of the measuring process, read
  before the checks run.

``attempted`` counts the instances run and ``failed`` those with a failed
output check or an error, so failed/attempted is the failure fraction.

With ``--trace 1`` one process runs the timed phase untraced for half of
``--seconds`` and then the same instances traced, and the last line reports
the per-layer metrics: self times of the spans opened around each library
call during set-up (which runs every pipeline once on a small word) and the
traced phase, with ``trace.wall_s`` their wall time and
``trace.unattributed_s`` the part no span covers; lightcone counts from the
benchmark's own BFS over every graph that set-up and the traced phase passed
to ``lightcone_expectation``; and the tracing overhead, the ratio of traced
to untraced time.  Since set-up runs every pipeline, no
per-layer figure is 0 on any workload.  The spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table1-p2", "table1-p1", "classical-100k", "exact-n16")
#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 5
#: A run must end within 180 s; a child past this is stopped.
CHILD_TIMEOUT_S = 170
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and parse its last output line."""
    env = {**os.environ, **BLAS_THREADS}
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _command_output(cmd: list[str], **kwargs) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def metadata(args, result: dict) -> dict:
    git_dir = ROOT / ".git"
    commit = "unknown"
    if git_dir.exists():
        commit = _command_output(
            ["git", "rev-parse", "HEAD"], env={**os.environ, "GIT_DIR": str(git_dir)}
        )
    return {
        "workload": args.workload,
        "seed": result["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "instances": result["instances"],
        "wall_s": result["wall_s"],
        "reference_s": result.get("reference_s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, help="default: experiments.DEFAULT_SEEDS")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.seed is not None and args.seed < 0):
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "paintshop" / "__init__.py").is_file():
        parser.exit(2, f"error: no paintshop sources under {ROOT / 'src'}\n")

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seconds", repr(args.seconds)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    if args.trace:
        result = spawn([*common, "--trace", "1", "--out", str(HERE / "out")], deadline)
        metrics = result["per_layer"]
    else:
        setups = [spawn([*common, "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(common, deadline)
        setups.append(result["setup_s"])
        metrics = {
            "wall_ref": {"value": result["wall_ref"], "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    meta = metadata(args, result)
    if args.trace:
        meta["census"] = result["census"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
