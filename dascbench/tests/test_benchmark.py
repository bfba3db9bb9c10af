"""Tests of the benchmark itself, on the tiny input size.

Run from the repository root: ``python3 -m pytest dascbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command runs; ``BENCHMARK.json`` lists the last two.
WORKLOADS = ["fit_large_buckets", "mr_fine_buckets", "serve_closed_loop"]

#: Metrics a seed fixes exactly: they are counts or depend on no clock.
DETERMINISTIC_PER_LAYER = [
    "core.n_buckets", "core.max_bucket_n", "core.sum_n3",
    "kernels.gram_bytes", "kernels.ledger_bytes", "spectral.eigen_calls",
    "mapreduce.map_tasks", "mapreduce.reduce_tasks", "mapreduce.makespan_sim_s",
    "serving.route_exact", "serving.route_near", "serving.route_nearest",
    "serving.route_fallback", "serving.cache_hit_ratio",
]


def run(workload, trace, tmp_path, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "dascbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
            "--size", "tiny", "--trace-dir", str(tmp_path),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace, tmp_path, seed=3):
    proc = run(workload, trace, tmp_path, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs per workload and mode with the same seed."""
    tmp = tmp_path_factory.mktemp("traces")
    return {
        (w, trace): [result(w, trace, tmp) for _ in range(2)]
        for w in WORKLOADS
        for trace in (0, 1)
    }


def test_spec_matches_the_code():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import layers
        import run
        import worker
    finally:
        del sys.path[:2]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == worker.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert list(run.WORKLOADS) == WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == ["mr_fine_buckets", "serve_closed_loop"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = runs[workload, trace][0]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_metric_copies_another(runs, workload):
    """End-to-end values, and the per-layer times a workload measures, are
    pairwise distinct: none is another's sample under a second name.
    (Per-layer counts may coincide by construction, e.g. one reduce task
    per bucket, and layers a workload does not run all read 0.)"""
    e2e = [m["value"] for m in runs[workload, 0][0]["metrics"].values()]
    assert len(set(e2e)) == len(e2e)
    layer = runs[workload, 1][0]["metrics"]
    times = [m["value"] for m in layer.values() if m["unit"] == "s" and m["value"]]
    assert len(set(times)) == len(times)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(runs, workload):
    first, second = (r["metrics"] for r in runs[workload, 0])
    assert first["nmi"]["value"] == second["nmi"]["value"]
    first, second = (r["metrics"] for r in runs[workload, 1])
    for name in DETERMINISTIC_PER_LAYER:
        assert first[name]["value"] == second[name]["value"], name


def test_layers_a_workload_runs_are_measured(runs):
    """Each layer reads non-zero on the workload that exercises it."""
    fit = runs["fit_large_buckets", 1][0]["metrics"]
    mr = runs["mr_fine_buckets", 1][0]["metrics"]
    serve = runs["serve_closed_loop", 1][0]["metrics"]
    for name in ("lsh.hash_s", "core.bucket_s", "kernels.gram_s", "spectral.eigen_s", "spectral.peak_alloc_mb"):
        assert fit[name]["value"] > 0 and mr[name]["value"] > 0 and serve[name]["value"] > 0, name
    for name in ("mapreduce.run_s", "mapreduce.checkpoint_put_s", "mapreduce.reduce_tasks"):
        assert mr[name]["value"] > 0 and fit[name]["value"] == 0, name
    for name in ("serving.assign_s", "serving.route_exact"):
        assert serve[name]["value"] > 0 and mr[name]["value"] == 0, name


def test_a_failed_check_fails_the_run(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    monkeypatch.setattr(workloads.FitLargeBuckets, "check", lambda self: [("forced", False)])
    code = worker.main([
        "--workload", "fit_large_buckets", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--size", "tiny", "--trace-dir", str(tmp_path),
    ])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False and out["failed"] == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "dascbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("fit_large_buckets", 0, tmp_path / "traces", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
