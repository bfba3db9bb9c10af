"""The repository's benchmark: three workloads, each in a fresh process.

Run from the repository root::

    python3 dascbench/run.py --workload mr_fine_buckets --seed 1 --seconds 50 --trace 0
    python3 dascbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
pass and prints the per-layer metrics (and writes its spans under
``--trace-dir``). The last line of the output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--workload all`` it merges the three workloads, naming each metric
``<workload>.<metric>``. The exit code is 0 only when every correctness
check of every workload passed.

``BENCHMARK.json`` lists two of the workloads, ``mr_fine_buckets`` and
``serve_closed_loop``, which between them reach every layer: the serving
workload's traced run replays the local fit stage by stage.
``fit_large_buckets`` runs the same way when named here, but is left out
of ``BENCHMARK.json`` so that two workloads get 50-second runs within the
benchmark's time limit (see ``README.md``).

Each workload runs in a child process whose environment pins BLAS/OpenMP to
one thread (measured on ``fit_large_buckets``: per-process median fit time
spread 20% at two threads, 5.5% at one) and clears the program's
``REPRO_*`` settings so it runs its defaults. The program itself is
imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit_large_buckets", "mr_fine_buckets", "serve_closed_loop")
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CLEARED = ("REPRO_N_JOBS", "REPRO_VALIDATE", "REPRO_DATA_PLANE", "REPRO_TRACE_DIR")
#: A workload process that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_workload(name: str, args) -> tuple[int, dict | None]:
    """Run one workload in a fresh process; relay its output; return (code, result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--trace-dir", args.trace_dir,
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0, help="timed operation seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' exists for the benchmark's own tests",
    )
    parser.add_argument("--trace-dir", default=".bench_traces", help="where the traced run writes spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, result = run_workload(name, args)
        if result is None:
            return code
        worst = max(worst, code)
        if len(names) == 1:
            merged = result
            break
        print(json.dumps({"workload": name, **result}))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return worst if worst else (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
