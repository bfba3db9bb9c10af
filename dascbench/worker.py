"""Run one workload in this process and print its result line.

``run.py`` starts this file in a fresh process with BLAS threads pinned and
the program's ``REPRO_*`` settings cleared; see that file for the options.
Diagnostic lines start with ``#``; the last line is the JSON result. The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from workloads import WORKLOADS

#: Every end-to-end metric: (name, unit). Each workload reports all of them.
END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("nmi", "ratio"), ("peak_rss_mb", "MB")]

SETTINGS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED",
    "REPRO_N_JOBS", "REPRO_VALIDATE", "REPRO_DATA_PLANE", "REPRO_TRACE_DIR",
)


def reference_kernel_ms() -> float:
    """Median time of a fixed pure-numpy kernel: a machine-speed reading,
    taken at the start and end of a run so drift between runs shows."""
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((384, 384))
    v = rng.standard_normal(1_000_000)
    times = []
    for _ in range(7):
        t0 = perf_counter()
        (A @ A).sum()
        np.sort(v)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def timed_setup(workload):
    """One set-up from a collected heap; returns its wall time."""
    gc.collect()
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def timed_loop(workload, seconds, setup_times):
    """Run ops until ``seconds`` of op time have passed and at least
    ``workload.min_ops`` ran. The set-ups after the first (which ran before
    the loop) are spread evenly over the op time: the host's speed drifts
    over seconds to minutes, and set-ups run back to back would all sample
    one moment of it."""
    marks = [seconds * k / workload.setup_repeats for k in range(1, workload.setup_repeats)]
    latencies = []
    total = 0.0
    while len(latencies) < workload.min_ops or total < seconds:
        workload.prepare(len(latencies))
        t0 = perf_counter()
        workload.op(len(latencies))
        latencies.append(perf_counter() - t0)
        total += latencies[-1]
        while marks and total >= marks[0]:
            marks.pop(0)
            setup_times.append(timed_setup(workload))
    return latencies


def say(key, value):
    print(f"# {key:<16} {value}", flush=True)


def measure(w, args, setup_times):
    """The timed loop; returns (metrics, checks, ops)."""
    latencies = timed_loop(w, args.seconds, setup_times)
    # Read before the checks run, so the peak covers set-up and timed work.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "nmi": w.nmi(),
        "peak_rss_mb": rss_mb,
    }
    say("setup_s", f"{metrics['setup_s']:.4f} s (median of {len(setup_times)} set-ups, spread over the run)")
    say("op_p50_ms", f"{metrics['op_p50_ms']:.4f} ms (median of {len(latencies)} {w.op_name})")
    quartiles = " ".join(f"{1e3 * q:.4f}" for q in statistics.quantiles(latencies, n=4))
    say("op_quartiles_ms", f"{quartiles} (spread of the ops within this run)")
    say("nmi", f"{metrics['nmi']:.6f}")
    say("peak_rss_mb", f"{rss_mb:.1f} MB (ru_maxrss of the process)")
    for key, value in w.diagnostics(latencies).items():
        say(key, value)
    return metrics, w.check(), len(latencies)


def trace(w, args):
    """The traced passes; returns (per-layer metrics, checks, ops)."""
    out = w.traced()
    metrics = layers.per_layer_metrics(out)
    path = Path(args.trace_dir) / f"{w.name}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        out["spans"].dump(fh, "time")
        out["mem"].dump(fh, "memory")
    say("spans", str(path))
    say("trace_overhead_s", f"{out['overhead_s']:.4f} s (traced minus untraced op)")
    for name, value in metrics.items():
        say(name, value)
    return metrics, out["checks"], out["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args(argv)

    say("workload", f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    say("settings", " ".join(f"{k}={os.environ.get(k, '<unset>')}" for k in SETTINGS))
    say("versions", f"python={sys.version.split()[0]} numpy={np.__version__}")
    say("reference_ms", f"{reference_kernel_ms():.4f} ms at start (diagnostic)")
    metrics, checks, ops, failed = {}, [], 0, 0
    try:
        w = WORKLOADS[args.workload](args.seed, args.size)
        setup_times = [timed_setup(w)]
        metrics, checks, n = trace(w, args) if args.trace else measure(w, args, setup_times)
        ops += n + len(setup_times)
    except Exception:
        traceback.print_exc()
        failed += 1
    for name, ok in checks:
        if not ok:
            failed += 1
            print(f"# FAILED check: {name}", file=sys.stderr, flush=True)
    attempted = max(ops + len(checks), 1)
    say("reference_ms", f"{reference_kernel_ms():.4f} ms at end (diagnostic)")
    say("fail_ratio", f"{failed / attempted:.6f} ({failed} of {attempted} operations and checks)")
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in layers.PER_LAYER}
    correct = failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
