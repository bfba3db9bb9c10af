"""The benchmark's three workloads: inputs from a seed, set-up, timed operation, checks.

Each workload answers for one kind of user of the system:

* ``fit_large_buckets`` — someone clustering a dataset whose LSH partition
  has a few large buckets, so the dense per-bucket solve dominates;
* ``mr_fine_buckets`` — someone running the EMR job flow on a partition of
  many small buckets, where per-call overhead, the engine and checkpoint
  storage hold real time;
* ``serve_closed_loop`` — someone serving cluster assignments from an
  exported model to one client that waits for each reply (closed loop, no
  think time, fixed 32-point requests).

A workload object owns its inputs. ``setup()`` is the untimed warm-up the
program needs before timed work (timed on its own as ``setup_s``),
``op()`` is one timed operation, and ``check()`` returns the correctness
checks of everything ``op()`` produced.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

import layers
from repro.core import DASC, DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.metrics.nmi import normalized_mutual_info
from repro.serving import AssignmentService


def blobs(n, n_clusters, n_features, std, geometry, seed):
    """Gaussian blobs in [0, 1]^d around centres fixed by ``geometry``.

    ``repro.data.make_blobs`` draws the centres from the same seed as the
    points, so its LSH partition, and with it the cost (the sum of cubed
    bucket sizes), changes by up to 3x from seed to seed. Here the centres
    are part of the workload's definition and ``seed`` draws only the
    points, their cluster order and their noise.
    """
    centres = np.random.default_rng(geometry).uniform(0.0, 1.0, (n_clusters, n_features))
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % n_clusters)
    X = np.clip(centres[y] + rng.normal(0.0, std, (n, n_features)), 0.0, 1.0)
    return X, y


def _streams(seed):
    """Independent generators for the training data and the query traffic."""
    data, queries = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(data), np.random.default_rng(queries)


class _FitWorkload:
    """Shared shape of the two fit workloads: one op is one full fit."""

    #: Fewest timed fits per run, however short ``--seconds`` is.
    min_ops = 3
    #: Set-ups per run, spread over its op time; ``setup_s`` is their median.
    #: One MapReduce set-up takes 0.2-0.35 s depending on the host's speed
    #: at that moment, so it takes many of them for a steady median.
    setup_repeats = 15
    #: Rows of the input the warm-up fit runs on: enough to reach every
    #: stage (hash, buckets, Gram, eigensolve, k-means) without repeating
    #: the timed operation inside set-up.
    warmup_rows = 512

    def __init__(self, seed, size):
        p = self.sizes[size]
        self.params = p
        data_rng, _ = _streams(seed)
        self.X, self.y = blobs(
            p["n"], p["n_clusters"], p["n_features"], p["std"], p["geometry"],
            int(data_rng.integers(2**31)),
        )
        self.results = []

    def prepare(self, i):
        """Collect garbage so every fit starts from the same heap: a cycle
        left by the previous fit would otherwise be freed at a varying point
        of the next one, moving both its time and the process's peak RSS."""
        gc.collect()

    def diagnostics(self, latencies):
        return {}

    def nmi(self):
        return normalized_mutual_info(self.y, self.results[0]["labels"])

    def check(self):
        first = self.results[0]
        return [
            (f"{self.op_name} #{i} repeats the first result", _same(r, first))
            for i, r in enumerate(self.results[1:], start=1)
        ]

    def traced(self):
        """Two untraced ops as the reference, then the traced passes."""
        untraced = []
        for i in range(2):
            self.prepare(i)
            t0 = perf_counter()
            self.op(i)
            untraced.append(perf_counter() - t0)
        out = self.trace()
        labels = self.results[0]["labels"]
        out["ops"] = len(untraced) + 2
        out["overhead_s"] = out["traced_s"] - statistics.median(untraced)
        out["checks"] = self.check() + [
            ("traced pass reproduces the untraced labels", np.array_equal(out["labels"], labels)),
            ("tracemalloc pass reproduces the untraced labels", np.array_equal(out["mem_labels"], labels)),
        ]
        return out


def _same(a, b):
    return all(np.array_equal(a[key], b[key]) for key in a)


class FitLargeBuckets(_FitWorkload):
    name = "fit_large_buckets"
    op_name = "DASC.fit"
    # Geometry 4 partitions into buckets of ~2500 and ~1500 points on every
    # seed tried, 11-22 (sum of n_i^3 = 1.90e10 +- 0.1%).
    sizes = {
        "full": dict(n=4000, n_clusters=8, n_features=16, std=0.05, geometry=4),
        "tiny": dict(n=400, n_clusters=4, n_features=8, std=0.05, geometry=4),
    }

    def config(self):
        return DASCConfig(n_clusters=self.params["n_clusters"])

    def setup(self):
        DASC(config=self.config()).fit(self.X[: self.warmup_rows])

    def op(self, i):
        est = DASC(config=self.config()).fit(self.X)
        self.results.append({"labels": est.labels_})

    def trace(self):
        return layers.trace_local(self.X, self.config())


class MRFineBuckets(_FitWorkload):
    name = "mr_fine_buckets"
    op_name = "DistributedDASC.run"
    warmup_rows = 2048
    # Geometry 15 with 14 bits and merging off gives 249-256 buckets of
    # median ~130 and max ~600 points on 26 of seeds 0-29 (sum of n_i^3
    # within 1.5%; seeds 1, 4 and 23 read -6%, seed 3 -35%). Most other
    # geometries flip between partitions whose sum of n_i^3 differs by up
    # to 1.75x from seed to seed. K is twice the
    # blob count, so most buckets get k_i >= 2 and reach the eigensolver:
    # at K = 256 almost every bucket is one cluster and the run is mostly
    # checkpoint storage.
    sizes = {
        "full": dict(
            n=32768, n_clusters=256, n_features=32, std=0.02, geometry=15,
            n_bits=14, n_nodes=16, k=512,
        ),
        "tiny": dict(
            n=2048, n_clusters=32, n_features=16, std=0.02, geometry=15,
            n_bits=10, n_nodes=4, k=64,
        ),
    }

    def driver(self):
        p = self.params
        config = DASCConfig(n_clusters=p["k"], n_bits=p["n_bits"], min_shared_bits=p["n_bits"])
        return DistributedDASC(n_nodes=p["n_nodes"], config=config)

    def setup(self):
        self.driver().run(self.X[: self.warmup_rows])

    def op(self, i):
        result = self.driver().run(self.X)
        self.results.append({"labels": result.labels, "makespan": result.makespan})

    def trace(self):
        out = layers.trace_mr(self)
        self.results.append({"labels": out["labels"], "makespan": out["makespan"]})
        return out

    def diagnostics(self, latencies):
        return {"makespan_sim_s": f"{self.results[0]['makespan']:.1f} s (simulated; deterministic per seed)"}


class ServeClosedLoop:
    name = "serve_closed_loop"
    op_name = "AssignmentService.assign"
    request_points = 32
    #: Query mix: share of training points (exact route), of training points
    #: jittered by ``jitter`` (mostly exact, some near/nearest), and the rest
    #: uniform over a box wider than the data (near/nearest routes).
    train_share, jitter_share, jitter = 0.4, 0.5, 0.03
    #: Set-ups per run: fewer than the fits' because one set-up fits and
    #: exports the model (~1.5 s), and the run's time goes to the loop.
    setup_repeats = 5
    # Geometry 1 with 7 bits and merging off gives 11-14 buckets (largest
    # ~1310 points); ~57% of training points sit in buckets that the Nyström
    # path serves, the rest in single-cluster buckets. The served model is
    # part of the workload: its training points come from a fixed seed and
    # ``--seed`` draws only the traffic. When the seed drew the training
    # points too, K = 16 spread over ~13 buckets gave the second-largest
    # bucket 1, 2 or 3 clusters depending on the seed, which switched its
    # Nyström path on and off and moved request latency by ~30%.
    sizes = {
        "full": dict(
            n=4096, n_clusters=16, n_features=16, std=0.05, geometry=1, n_bits=7,
            k=16, train_seed=0, fixed_requests=2000,
        ),
        "tiny": dict(
            n=512, n_clusters=4, n_features=8, std=0.05, geometry=1, n_bits=4,
            k=4, train_seed=0, fixed_requests=50,
        ),
    }

    def __init__(self, seed, size):
        p = self.sizes[size]
        self.params = p
        _, self._query_rng = _streams(seed)
        data_rng, _ = _streams(p["train_seed"])
        self.X, self.y = blobs(
            p["n"], p["n_clusters"], p["n_features"], p["std"], p["geometry"],
            int(data_rng.integers(2**31)),
        )
        #: The first requests of every run, kept with their served labels:
        #: NMI, the per-request check against model.assign and the traced
        #: replay use exactly these, so their values do not depend on how
        #: fast the loop ran (checking every request would double the run).
        #: Requests past them are drawn in chunks and dropped once served,
        #: so the process's memory does not grow with the loop.
        self.fixed_requests = self.min_ops = p["fixed_requests"]
        self.requests = self._draw(self.fixed_requests)  # (Q, truth); truth -1: none
        self.served = []
        self.fit_seconds = []
        self.setup_labels = []
        self._chunk, self._chunk_start = [], self.fixed_requests

    def config(self):
        p = self.params
        return DASCConfig(n_clusters=p["k"], n_bits=p["n_bits"], min_shared_bits=p["n_bits"])

    def setup(self):
        """Fit, export and start a service. The first set-up's service serves
        the whole run; later set-ups, timed between requests, are dropped,
        so the route cache is not emptied mid-run."""
        t0 = perf_counter()
        est = DASC(config=self.config()).fit(self.X)
        self.fit_seconds.append(perf_counter() - t0)
        model = est.export_model(self.X)
        service = AssignmentService(model)
        service.assign(self.X[: self.request_points])
        self.setup_labels.append(est.labels_)
        if len(self.setup_labels) == 1:
            self.fit_labels, self.model, self.service = est.labels_, model, service

    def _draw(self, count):
        """``count`` requests from the query stream, as (Q, truth) pairs."""
        rng = self._query_rng
        n, d = self.X.shape
        m = self.request_points * count
        kind = rng.random(m)
        src = rng.integers(0, n, m)
        Q = self.X[src].copy()
        truth = self.y[src].copy()
        jittered = (kind >= self.train_share) & (kind < self.train_share + self.jitter_share)
        Q[jittered] += rng.normal(0.0, self.jitter, (int(jittered.sum()), d))
        wide = kind >= self.train_share + self.jitter_share
        Q[wide] = rng.uniform(-0.25, 1.25, (int(wide.sum()), d))
        truth[wide] = -1
        q = self.request_points
        return [(Q[r * q : (r + 1) * q], truth[r * q : (r + 1) * q]) for r in range(count)]

    def _request(self, i):
        if i < self.fixed_requests:
            return self.requests[i][0]
        return self._chunk[i - self._chunk_start][0]

    def prepare(self, i):
        """Draw request ``i`` (in chunks of 1000) before its timing starts."""
        if i >= self._chunk_start + len(self._chunk):
            self._chunk_start += len(self._chunk)
            self._chunk = self._draw(1000)

    def op(self, i):
        labels = self.service.assign(self._request(i))
        if i < self.fixed_requests:
            self.served.append(labels)

    def nmi(self):
        labels = np.concatenate(self.served)
        truth = np.concatenate([t for _, t in self.requests[: len(self.served)]])
        known = truth >= 0
        return normalized_mutual_info(truth[known], labels[known])

    def diagnostics(self, latencies):
        ms = 1e3 * np.asarray(latencies)
        mix = self.service.route_mix()
        lookups = mix["cache_hits"] + mix["cache_misses"]
        return {
            "req_p99_ms": f"{np.percentile(ms, 99):.4f} ms (p99 of {ms.size} requests)",
            "req_pts_per_s": f"{self.request_points * ms.size / (ms.sum() / 1e3):.1f} 1/s",
            "cache_hit_ratio": f"{mix['cache_hits'] / lookups:.4f}",
            "route_mix": " ".join(f"{k}={mix[k]}" for k in ("exact", "near", "nearest", "fallback")),
        }

    def traced(self):
        out = layers.trace_serving(self)
        out["ops"] = 2 + self.fixed_requests
        out["overhead_s"] = out["traced_s"] - statistics.median(self.fit_seconds)
        served, replayed = out["serving"]["served"], out["serving"]["replayed"]
        out["checks"] = [
            ("traced fit replay reproduces the fit labels", np.array_equal(out["labels"], self.fit_labels)),
            ("tracemalloc fit replay reproduces the fit labels", np.array_equal(out["mem_labels"], self.fit_labels)),
        ] + [
            (f"request #{i} equals its rung-by-rung replay", np.array_equal(a, b))
            for i, (a, b) in enumerate(zip(served, replayed))
        ]
        return out

    def check(self):
        checks = [
            (
                "service.assign(X_train) reproduces the fit labels",
                np.array_equal(self.service.assign(self.X), self.fit_labels),
            )
        ] + [
            (f"set-up #{i} repeats the first set-up's fit labels", np.array_equal(labels, self.fit_labels))
            for i, labels in enumerate(self.setup_labels[1:], start=1)
        ]
        for i, labels in enumerate(self.served):
            checks.append(
                (
                    f"request #{i} equals model.assign",
                    np.array_equal(labels, self.model.assign(self.requests[i][0])),
                )
            )
        return checks


WORKLOADS = {w.name: w for w in (FitLargeBuckets, MRFineBuckets, ServeClosedLoop)}
