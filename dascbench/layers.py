"""The traced run: per-layer metrics, timed from outside the program.

Spans (name, start, end, parent) are recorded here, around calls into each
layer's public functions, and written out when the run ends; nothing in
``src/`` is instrumented for the benchmark. Two mechanisms reach the layers:

* the local pipeline is *replayed*: :func:`replay_fit` calls the stages of
  ``DASC.fit`` one by one (hash, bucket, Gram, Laplacian, eigensolve,
  k-means, refine) with the fit's own seed-draw order, so its labels must
  equal an untraced fit's bit for bit;
* the MapReduce job flow runs its stages inside the engine, so
  :func:`trace_mr` temporarily routes the module attributes the driver and
  reducers call through timed wrappers (:meth:`Spans.patched`).

Each pass runs twice: once for time, and once under ``tracemalloc`` for
the memory metrics, because tracing allocations slows Python-heavy stages.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.core.allocation import allocate_clusters
from repro.core.approx_kernel import build_approximate_kernel
from repro.core.buckets import fold_small_buckets, group_by_signature, merge_buckets
from repro.core.refine import merge_clusters_to_k
from repro.core.signatures import compute_signatures
from repro.kernels.bandwidth import median_heuristic
from repro.kernels.functions import GaussianKernel
from repro.serving import ROUTE_NAMES
from repro.spectral.eigen import top_eigenvectors
from repro.spectral.embedding import row_normalize
from repro.spectral.kmeans import KMeans
from repro.spectral.laplacian import normalized_laplacian
from repro.utils.memory import block_diagonal_bytes

#: Every per-layer metric the traced run prints: (name, unit, better).
#: A layer a workload does not run reads 0 there.
PER_LAYER = [
    ("lsh.hash_s", "s", "lower"),
    ("core.bucket_s", "s", "lower"),
    ("core.n_buckets", "count", "higher"),
    ("core.max_bucket_n", "count", "lower"),
    ("core.sum_n3", "count", "lower"),
    ("kernels.gram_s", "s", "lower"),
    ("kernels.gram_bytes", "bytes", "lower"),
    ("kernels.ledger_bytes", "bytes", "lower"),
    ("kernels.ledger_ratio", "ratio", "lower"),
    ("spectral.laplacian_s", "s", "lower"),
    ("spectral.eigen_s", "s", "lower"),
    ("spectral.kmeans_s", "s", "lower"),
    ("spectral.eigen_calls", "count", "lower"),
    ("spectral.peak_alloc_mb", "MB", "lower"),
    ("core.refine_s", "s", "lower"),
    ("dasc_mr.submit_s", "s", "lower"),
    ("dasc_mr.collect_s", "s", "lower"),
    ("mapreduce.run_s", "s", "lower"),
    ("mapreduce.map_real_s", "s", "lower"),
    ("mapreduce.reduce_real_s", "s", "lower"),
    ("mapreduce.step_overhead_s", "s", "lower"),
    ("mapreduce.checkpoint_put_s", "s", "lower"),
    ("mapreduce.checkpoint_get_s", "s", "lower"),
    ("mapreduce.checkpoint_bytes", "bytes", "lower"),
    ("mapreduce.map_tasks", "count", "lower"),
    ("mapreduce.reduce_tasks", "count", "lower"),
    ("mapreduce.slot_utilization", "ratio", "higher"),
    ("mapreduce.makespan_sim_s", "s", "lower"),
    ("serving.hash_s", "s", "lower"),
    ("serving.route_s", "s", "lower"),
    ("serving.assign_s", "s", "lower"),
    ("serving.service_overhead_s", "s", "lower"),
    ("serving.cache_hit_ratio", "ratio", "higher"),
    ("serving.route_exact", "count", "higher"),
    ("serving.route_near", "count", "lower"),
    ("serving.route_nearest", "count", "lower"),
    ("serving.route_fallback", "count", "lower"),
]

MB = 2.0**20


class Spans:
    """In-memory span recorder; with ``memory`` each span also records the
    peak ``tracemalloc`` allocation above its start (``peak_alloc``)."""

    def __init__(self, *, memory: bool = False):
        self.memory = memory
        self.records: list[dict] = []
        self.last: dict = {}
        self._open: list[dict] = []
        self._next_id = 0

    @contextmanager
    def span(self, name, **attrs):
        frame = {"id": self._next_id, "name": name, "parent": self._open[-1]["id"] if self._open else None}
        self._next_id += 1
        if self.memory:
            self._fold_peak()
            tracemalloc.reset_peak()
            frame["_mem"] = frame["_peak"] = tracemalloc.get_traced_memory()[0]
        self._open.append(frame)
        frame["start"] = perf_counter()
        try:
            yield frame
        finally:
            frame["end"] = perf_counter()
            if self.memory:
                self._fold_peak()
                frame["peak_alloc"] = frame.pop("_peak") - frame.pop("_mem")
            self._open.pop()
            frame.update(attrs)
            self.records.append(frame)

    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._open:
            frame["_peak"] = max(frame["_peak"], peak)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, targets):
        """Time every call to ``obj.attr`` as a span ``name``, for each
        ``(obj, attr, name)`` or ``(obj, attr, name, describe)`` target;
        ``describe(*args)`` returns attributes for the call's span."""
        saved = []
        try:
            for obj, attr, name, *describe in targets:
                original = getattr(obj, attr)
                saved.append((obj, attr, attr in vars(obj), vars(obj).get(attr)))

                def timed(*args, _fn=original, _name=name, _describe=describe, **kwargs):
                    attrs = _describe[0](*args) if _describe else {}
                    with self.span(_name, **attrs):
                        out = _fn(*args, **kwargs)
                    self.last[_name] = out
                    return out

                setattr(obj, attr, timed)
            yield
        finally:
            for obj, attr, owned, value in reversed(saved):
                if owned:
                    setattr(obj, attr, value)
                else:
                    delattr(obj, attr)

    def total(self, name) -> float:
        return float(sum(r["end"] - r["start"] for r in self.records if r["name"] == name))

    def named(self, name) -> list[dict]:
        return [r for r in self.records if r["name"] == name]

    def dump(self, fh, tag) -> None:
        for r in sorted(self.records, key=lambda r: r["id"]):
            fh.write(json.dumps({"pass": tag, **r}) + "\n")


@contextmanager
def _tracing_allocations():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _gram_attrs(sizes):
    """Span attributes of a Gram build: float64 bytes built and the ledger's
    Eq.-12 charge for the same blocks."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return {"bytes": int(8 * (sizes**2).sum()), "ledger": block_diagonal_bytes(sizes.tolist())}


# -- the local pipeline --------------------------------------------------------


def replay_fit(X, config, spans):
    """``DASC.fit`` stage by stage; returns ``(labels, facts)``.

    Mirrors ``DASC._fit_traced`` for the configurations the workloads use
    (axis hashing, a data-driven or fixed sigma, any non-eigengap
    allocation): the per-bucket seeds are drawn from ``config.seed`` in
    bucket order, eigensolver seed before k-means seed, and only for blocks
    that reach the eigensolver.
    """
    if config.allocation == "eigengap":
        raise ValueError("the replay does not cover the eigengap allocation")
    n = X.shape[0]
    k_total = config.resolve_n_clusters(n)
    with spans.span("lsh.hash"):
        signatures, n_bits, _ = compute_signatures(X, config)
    with spans.span("core.bucket"):
        buckets = group_by_signature(signatures, n_bits)
        buckets = merge_buckets(
            buckets, config.resolve_min_shared_bits(n_bits), strategy=config.merge_strategy
        )
        buckets = fold_small_buckets(buckets, config.min_bucket_size)
    with spans.span("kernels.bandwidth"):
        sigma = config.sigma if config.sigma is not None else median_heuristic(X, seed=config.seed)
    with spans.span("kernels.gram", **_gram_attrs(buckets.sizes)):
        approx = build_approximate_kernel(
            X, buckets, GaussianKernel(float(sigma)), zero_diagonal=config.zero_diagonal
        )
    allocation = allocate_clusters(buckets.sizes, k_total, policy=config.allocation)
    seed_rng = np.random.default_rng(config.seed)
    labels = np.full(n, -1, dtype=np.int64)
    offset = 0
    for idx, block, k_i in zip(approx.bucket_indices, approx.blocks, allocation.tolist()):
        n_i = block.shape[0]
        if k_i >= n_i:
            local = np.arange(n_i, dtype=np.int64) % max(k_i, 1)
        elif k_i == 1:
            local = np.zeros(n_i, dtype=np.int64)
        else:
            eig_seed = int(seed_rng.integers(2**31))
            km_seed = int(seed_rng.integers(2**31))
            with spans.span("spectral.embedding", n=n_i, k=k_i):
                L = spans.call("spectral.laplacian", normalized_laplacian, block)
                _, vecs = spans.call(
                    "spectral.eigen", top_eigenvectors, L, k_i,
                    backend=config.eig_backend, seed=eig_seed,
                )
                del L
                Y = row_normalize(vecs)
            km = KMeans(k_i, n_init=config.kmeans_n_init, seed=km_seed)
            local = spans.call("spectral.kmeans", km.fit_predict, Y)
        labels[idx] = offset + local
        offset += k_i
    if config.refine_to_k and offset > k_total:
        labels = spans.call("core.refine", merge_clusters_to_k, X, labels, k_total)
    return labels, {"sizes": buckets.sizes, "ledger_bytes": approx.nbytes}


def trace_local(X, config):
    """Replay ``DASC.fit`` timed, then again under tracemalloc."""
    spans = Spans()
    t0 = perf_counter()
    labels, facts = replay_fit(X, config, spans)
    traced_s = perf_counter() - t0
    mem = Spans(memory=True)
    with _tracing_allocations():
        mem_labels, _ = replay_fit(X, config, mem)
    return {
        "labels": labels, "mem_labels": mem_labels, "facts": facts,
        "spans": spans, "mem": mem, "traced_s": traced_s,
    }


# -- the MapReduce job flow ------------------------------------------------------


def _mr_targets(emr):
    import repro.dasc_mr.driver as driver
    import repro.dasc_mr.stage1 as stage1
    import repro.dasc_mr.stage2 as stage2
    import repro.spectral.embedding as embedding
    from repro.lsh.axis import AxisParallelHasher

    return [
        (AxisParallelHasher, "fit", "lsh.hash"),
        (stage1, "signature_batch_mapper", "lsh.hash"),
        (driver, "group_by_signature", "core.bucket"),
        (driver, "merge_buckets", "core.bucket"),
        (driver, "fold_small_buckets", "core.bucket"),
        (stage2, "gram_matrix_auto", "kernels.gram", lambda X, *_: _gram_attrs([len(X)])),
        (stage2, "spectral_embedding", "spectral.embedding"),
        (embedding, "normalized_laplacian", "spectral.laplacian"),
        (embedding, "top_eigenvectors", "spectral.eigen"),
        (KMeans, "fit_predict", "spectral.kmeans"),
        (emr.storage, "put", "mapreduce.checkpoint_put"),
        (emr.storage, "get", "mapreduce.checkpoint_get"),
    ]


def _run_mr(workload, spans):
    dasc = workload.driver()
    emr = dasc.emr
    with spans.patched(_mr_targets(emr)):
        t0 = perf_counter()
        with spans.span("dasc_mr.submit"):
            flow_id = dasc.submit(workload.X)
        with spans.span("mapreduce.run"):
            steps = emr.run_job_flow(flow_id)
        with spans.span("dasc_mr.collect"):
            result = dasc.collect(flow_id)
        traced_s = perf_counter() - t0
    stored = sum(len(emr.s3.get(key)) for key in emr.s3.list_keys(flow_id))
    return result, steps, stored, traced_s


def trace_mr(workload):
    """One job flow with the layers' functions timed, then one under tracemalloc."""
    spans = Spans()
    result, steps, stored, traced_s = _run_mr(workload, spans)
    mem = Spans(memory=True)
    with _tracing_allocations():
        mem_result, *_ = _run_mr(workload, mem)
    buckets = spans.last["core.bucket"]
    jobs = [s for s in steps if hasattr(s, "map_stats")]
    phases = [stats for j in jobs for stats in (j.map_stats, j.reduce_stats)]
    busy = sum(p.total_cost for p in phases)
    capacity = sum(len(p.per_slot_cost) * p.makespan for p in phases)
    return {
        "labels": result.labels, "mem_labels": mem_result.labels,
        "makespan": result.makespan,
        "facts": {"sizes": buckets.sizes, "ledger_bytes": result.gram_bytes},
        "spans": spans, "mem": mem, "traced_s": traced_s,
        "mr": {
            "map_real_s": sum(j.map_stats.real_elapsed for j in jobs),
            "reduce_real_s": sum(j.reduce_stats.real_elapsed for j in jobs),
            "checkpoint_bytes": stored,
            "map_tasks": sum(j.map_stats.n_tasks for j in jobs),
            "reduce_tasks": sum(j.reduce_stats.n_tasks for j in jobs),
            "slot_utilization": busy / capacity if capacity else 1.0,
            "makespan_sim_s": result.makespan,
        },
    }


# -- the serving path ----------------------------------------------------------------


def trace_serving(workload):
    """The model's fit replayed, then the fixed requests replayed rung by rung.

    ``serving.service_overhead_s`` is the service's own time on the same
    requests minus hashing and Nyström assignment: route-cache lookups,
    routing of cache misses and its metrics bookkeeping.
    """
    out = trace_local(workload.X, workload.config())
    model, service = workload.model, workload.service
    n = workload.fixed_requests
    before = service.route_mix()
    served, service_s = [], 0.0
    for i in range(n):
        Q = workload.requests[i][0]
        t0 = perf_counter()
        served.append(service.assign(Q))
        service_s += perf_counter() - t0
    after = service.route_mix()
    spans = out["spans"]
    replayed, methods = [], []
    for i in range(n):
        Q = workload.requests[i][0]
        with spans.span("serving.request", index=i):
            sigs = spans.call("serving.hash", model.hasher.hash, Q)
            bucket_ids, rungs = spans.call("serving.route", model.route, sigs)
            labels, rungs = spans.call("serving.assign", model.assign_routed, Q, bucket_ids, rungs)
        replayed.append(labels)
        methods.append(rungs)
    methods = np.concatenate(methods)
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    out["serving"] = {
        "served": served,
        "replayed": replayed,
        "service_overhead_s": service_s - spans.total("serving.hash") - spans.total("serving.assign"),
        "cache_hit_ratio": hits / lookups if lookups else 1.0,
        **{f"route_{name}": int((methods == code).sum()) for code, name in enumerate(ROUTE_NAMES)},
    }
    return out


# -- metrics ---------------------------------------------------------------------------


def per_layer_metrics(out) -> dict:
    """The :data:`PER_LAYER` values of one traced run (0 for layers not run)."""
    spans, mem, facts = out["spans"], out["mem"], out["facts"]
    sizes = np.asarray(facts["sizes"], dtype=np.int64)
    gram_mem = mem.named("kernels.gram")
    ledger_built = sum(r["ledger"] for r in gram_mem)
    spectral_peak = max(
        (r["peak_alloc"] for r in mem.records if r["name"].startswith("spectral.")), default=0
    )
    values = {
        "lsh.hash_s": spans.total("lsh.hash"),
        "core.bucket_s": spans.total("core.bucket"),
        "core.n_buckets": int(sizes.size),
        "core.max_bucket_n": int(sizes.max()),
        "core.sum_n3": int((sizes**3).sum()),
        "kernels.gram_s": spans.total("kernels.gram"),
        "kernels.gram_bytes": sum(r["bytes"] for r in spans.named("kernels.gram")),
        "kernels.ledger_bytes": int(facts["ledger_bytes"]),
        "kernels.ledger_ratio": (
            sum(r["peak_alloc"] for r in gram_mem) / ledger_built if ledger_built else 0.0
        ),
        "spectral.laplacian_s": spans.total("spectral.laplacian"),
        "spectral.eigen_s": spans.total("spectral.eigen"),
        "spectral.kmeans_s": spans.total("spectral.kmeans"),
        "spectral.eigen_calls": len(spans.named("spectral.eigen")),
        "spectral.peak_alloc_mb": spectral_peak / MB,
        "core.refine_s": spans.total("core.refine"),
        "dasc_mr.submit_s": spans.total("dasc_mr.submit"),
        "dasc_mr.collect_s": spans.total("dasc_mr.collect"),
        "mapreduce.run_s": spans.total("mapreduce.run"),
        "mapreduce.checkpoint_put_s": spans.total("mapreduce.checkpoint_put"),
        "mapreduce.checkpoint_get_s": spans.total("mapreduce.checkpoint_get"),
        "serving.hash_s": spans.total("serving.hash"),
        "serving.route_s": spans.total("serving.route"),
        "serving.assign_s": spans.total("serving.assign"),
    }
    mr = out.get("mr")
    if mr:
        values.update({f"mapreduce.{k}": v for k, v in mr.items()})
        values["mapreduce.step_overhead_s"] = (
            values["mapreduce.run_s"] - mr["map_real_s"] - mr["reduce_real_s"]
        )
    serving = out.get("serving")
    if serving:
        values.update(
            {f"serving.{k}": v for k, v in serving.items() if k not in ("served", "replayed")}
        )
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
