"""Batched columnar data plane: bit-identity with the record reference path.

The contract under test (DESIGN.md §13): for any job carrying batched
operator twins, the batched plane must produce the same labels/output,
counter totals, partition contents, and simulated makespans as the
record-at-a-time path — on the serial and the process-pool executors, and
falling back cleanly (to the record path) under fault injection or
non-columnar inputs. Only real wall-clock is allowed to differ.
"""

import numpy as np
import pytest

import repro.mapreduce.executor as executor_mod
from repro.dasc_mr.driver import DistributedDASC
from repro.mapreduce import (
    ElasticMapReduce,
    JobSpec,
    MapReduceEngine,
    ParallelExecutor,
    RecordBatch,
    SerialExecutor,
    resolve_data_plane,
)
from repro.mapreduce.engine import DATA_PLANE_ENV, approx_bytes
from repro.mapreduce.executor import load_batch, ship_batch
from repro.mapreduce.faults import FaultPolicy, FaultyEngine


# -- a job with both operator sets (record twins define the semantics) -------

def mod_mapper(key, value, ctx):
    yield (key % 5, value * 2)


def mod_batch_mapper(batch, ctx):
    return RecordBatch(
        keys=np.asarray(batch.keys) % 5, values=np.asarray(batch.values) * 2
    )


def sum_reducer(key, values, ctx):
    yield (key, sum(values))


def sum_batch_reducer(key, group, ctx):
    vals = np.asarray(group.values)
    return RecordBatch(
        keys=np.asarray([key]), values=np.asarray([vals.sum(dtype=vals.dtype)])
    )


def mod_partitioner(key, n):
    return int(key) % n


def mod_batch_partitioner(keys, n):
    return np.asarray(keys).astype(np.int64, copy=False) % np.int64(n)


def make_job(**kwargs):
    defaults = dict(
        name="modsum",
        mapper=mod_mapper,
        reducer=sum_reducer,
        batch_mapper=mod_batch_mapper,
        batch_reducer=sum_batch_reducer,
    )
    defaults.update(kwargs)
    return JobSpec(**defaults)


def make_splits(n=40, n_splits=4):
    keys = np.arange(n, dtype=np.int64)
    values = keys * 10
    per = -(-n // n_splits)
    return [
        list(zip(keys[i : i + per].tolist(), values[i : i + per].tolist()))
        for i in range(0, n, per)
    ]


def run_record(job, splits, monkeypatch, engine=None):
    """Run on the record path by flipping the kill switch."""
    monkeypatch.setenv(DATA_PLANE_ENV, "record")
    try:
        return (engine or MapReduceEngine()).run(job, splits)
    finally:
        monkeypatch.delenv(DATA_PLANE_ENV)


def as_pairs(records):
    """Outputs as plain (int, int) pairs so scalar types don't obscure equality."""
    return [(int(k), int(v)) for k, v in records]


def assert_results_identical(batched, record):
    assert as_pairs(batched.output) == as_pairs(record.output)
    assert batched.counters.as_dict() == record.counters.as_dict()
    assert batched.makespan == record.makespan
    assert batched.map_stats.makespan == record.map_stats.makespan
    assert batched.reduce_stats.makespan == record.reduce_stats.makespan
    assert set(batched.partitions) == set(record.partitions)
    for p in record.partitions:
        assert as_pairs(batched.partitions[p]) == as_pairs(record.partitions[p])


# -- RecordBatch container ---------------------------------------------------

class TestRecordBatch:
    def test_roundtrip(self):
        records = [(1, 10.0), (2, 20.0), (3, 30.0)]
        batch = RecordBatch.from_records(records)
        assert len(batch) == 3
        assert [(int(k), float(v)) for k, v in batch.to_records()] == records

    def test_matrix_values_roundtrip(self):
        records = [(i, np.full(3, float(i))) for i in range(4)]
        batch = RecordBatch.from_records(records)
        assert isinstance(batch.values, np.ndarray) and batch.values.shape == (4, 3)
        out = batch.to_records()
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(out, records))

    def test_tuple_values_roundtrip(self):
        records = [(i, (i * 2, np.full(2, float(i)))) for i in range(3)]
        batch = RecordBatch.from_records(records)
        idx_col, vec_col = batch.values
        assert idx_col.tolist() == [0, 2, 4]
        assert vec_col.shape == (3, 2)
        out = batch.to_records()
        assert [int(r[1][0]) for r in out] == [0, 2, 4]

    def test_slice_and_take(self):
        batch = RecordBatch.from_records([(i, i * 1.0) for i in range(10)])
        view = batch[2:5]
        assert view.keys.tolist() == [2, 3, 4]
        taken = batch.take(np.array([9, 0]))
        assert taken.keys.tolist() == [9, 0]

    def test_concat(self):
        a = RecordBatch.from_records([(0, 1.0), (1, 2.0)])
        b = RecordBatch.from_records([(2, 3.0)])
        merged = RecordBatch.concat([a, b])
        assert merged.keys.tolist() == [0, 1, 2]

    def test_nbytes_matches_record_estimate(self):
        # The byte accounting that feeds shuffle-volume trace attributes
        # must agree with approx_bytes over the equivalent record list.
        flat = RecordBatch.from_records([(i, i * 1.0) for i in range(7)])
        assert flat.nbytes == approx_bytes(flat.to_records())
        nested = RecordBatch.from_records(
            [(i, (i, np.full(4, float(i)))) for i in range(5)]
        )
        assert nested.nbytes == approx_bytes(nested.to_records())

    def test_from_records_rejects_unconvertible(self):
        assert RecordBatch.from_records([]) is None
        assert RecordBatch.from_records([("a", 1)]) is None  # string keys
        assert RecordBatch.from_records([(1, "x")]) is None  # string values
        assert RecordBatch.from_records([(1, 1.0), (2, "x")]) is None  # mixed
        assert RecordBatch.from_records([((1, 2), 0.0)]) is None  # tuple keys

    def test_constructor_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            RecordBatch(keys=np.arange(3), values=np.arange(4))


class TestRecordBatchEdges:
    """Boundary shapes: empty batches, degenerate concats, bad indices."""

    def test_empty_batch_roundtrip(self):
        batch = RecordBatch(
            keys=np.array([], dtype=np.int64), values=np.empty((0, 3))
        )
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch[0:0].to_records() == []
        assert len(batch.take(np.array([], dtype=np.int64))) == 0
        assert batch.nbytes == 0
        # from_records cannot infer a column layout from zero records —
        # the engine keeps empty partitions on the record path.
        assert RecordBatch.from_records(batch.to_records()) is None

    def test_concat_of_zero_batches_raises(self):
        with pytest.raises(ValueError, match="zero batches"):
            RecordBatch.concat([])

    def test_concat_of_one_batch_is_passthrough(self):
        batch = RecordBatch.from_records([(0, 1.0), (1, 2.0)])
        assert RecordBatch.concat([batch]) is batch

    def test_concat_of_slice_views(self):
        base = RecordBatch.from_records([(i, i * 1.0) for i in range(10)])
        merged = RecordBatch.concat([base[7:], base[:3], base[5:5]])
        assert merged.keys.tolist() == [7, 8, 9, 0, 1, 2]
        assert merged.values.tolist() == [7.0, 8.0, 9.0, 0.0, 1.0, 2.0]

    def test_concat_rejects_mismatched_structure(self):
        flat = RecordBatch.from_records([(0, 1.0)])
        nested = RecordBatch.from_records([(0, (1, 2.0))])
        with pytest.raises((TypeError, ValueError)):
            RecordBatch.concat([flat, nested])

    def test_take_out_of_range_raises_cleanly(self):
        batch = RecordBatch.from_records([(i, i * 1.0) for i in range(4)])
        with pytest.raises(IndexError, match="RecordBatch of 4"):
            batch.take(np.array([0, 4]))
        with pytest.raises(IndexError, match="RecordBatch of 4"):
            batch.take(np.array([-5]))
        # negative indices within range keep numpy semantics
        assert batch.take(np.array([-1])).keys.tolist() == [3]

    def test_take_on_empty_batch_rejects_any_index(self):
        batch = RecordBatch(keys=np.array([], dtype=np.int64), values=np.empty((0,)))
        with pytest.raises(IndexError, match="RecordBatch of 0"):
            batch.take(np.array([0]))

    def test_getitem_requires_slice(self):
        batch = RecordBatch.from_records([(0, 1.0)])
        with pytest.raises(TypeError, match="slice"):
            batch[0]

    def test_zero_column_batch_keeps_rows(self):
        # values=() is a batch of keyed empty tuples; the keys must survive
        # the columnar round-trip instead of vanishing into zip(*()).
        batch = RecordBatch(keys=np.arange(3), values=())
        assert len(batch) == 3
        assert batch.to_records() == [(0, ()), (1, ()), (2, ())]
        assert batch.take(np.array([2, 0])).to_records() == [(2, ()), (0, ())]
        # nbytes: 8/key-pointer + 16/tuple + key row bytes, no value bytes
        assert batch.nbytes == 8 * 3 + 3 * (16 + batch.keys.dtype.itemsize)


# -- engine-level equivalence ------------------------------------------------

class TestEngineEquivalence:
    def test_map_reduce_job_identical(self, monkeypatch):
        job = make_job(n_reducers=3, partitioner=mod_partitioner,
                       batch_partitioner=mod_batch_partitioner)
        splits = make_splits()
        batched = MapReduceEngine().run(job, splits)
        record = run_record(job, splits, monkeypatch)
        assert batched.output_batch is not None  # really took the batched path
        assert record.output_batch is None
        assert_results_identical(batched, record)

    def test_single_reducer_sorted_keys_identical(self, monkeypatch):
        job = make_job(sort_keys=True)
        splits = make_splits(n=23, n_splits=3)
        batched = MapReduceEngine().run(job, splits)
        record = run_record(job, splits, monkeypatch)
        assert_results_identical(batched, record)

    def test_map_only_job_identical(self, monkeypatch):
        job = make_job(reducer=None, batch_reducer=None)
        splits = make_splits()
        batched = MapReduceEngine().run(job, splits)
        record = run_record(job, splits, monkeypatch)
        assert batched.output_batch is not None
        assert as_pairs(batched.output) == as_pairs(record.output)
        assert batched.counters.as_dict() == record.counters.as_dict()
        assert batched.makespan == record.makespan

    def test_parallel_executor_identical_to_serial(self):
        job = make_job(n_reducers=2, partitioner=mod_partitioner,
                       batch_partitioner=mod_batch_partitioner)
        splits = make_splits()
        serial = MapReduceEngine().run(job, splits)
        parallel = MapReduceEngine(executor=ParallelExecutor(2)).run(job, splits)
        assert parallel.output_batch is not None
        assert_results_identical(parallel, serial)

    def test_columnar_splits_feed_batched_path(self):
        job = make_job()
        batch = RecordBatch(keys=np.arange(12, dtype=np.int64),
                            values=np.arange(12, dtype=np.int64) * 10)
        result = MapReduceEngine().run(job, [batch[:6], batch[6:]])
        assert result.output_batch is not None
        assert as_pairs(result.output) == as_pairs(
            MapReduceEngine().run(job, make_splits(n=12, n_splits=2)).output
        )

    def test_kill_switch_forces_record_path(self, monkeypatch):
        monkeypatch.setenv(DATA_PLANE_ENV, "record")
        result = MapReduceEngine().run(make_job(), make_splits())
        assert result.output_batch is None

    def test_unconvertible_records_fall_back(self):
        # String keys cannot be packed into columns: the engine must fall
        # back to the record path even though the job has batched operators.
        splits = [[("a", 1), ("b", 2)], [("a", 3)]]
        job = JobSpec(
            name="wc",
            mapper=lambda k, v, c: [(k, v)],
            reducer=sum_reducer,
            batch_mapper=mod_batch_mapper,
            batch_reducer=sum_batch_reducer,
        )
        result = MapReduceEngine().run(job, splits)
        assert result.output_batch is None
        assert dict(result.output) == {"a": 4, "b": 2}

    def test_missing_batch_reducer_falls_back(self):
        job = make_job(batch_reducer=None)
        result = MapReduceEngine().run(job, make_splits())
        assert result.output_batch is None

    def test_multi_reducer_without_batch_partitioner_falls_back(self):
        # stable_hash is key-type-sensitive; without a vectorized
        # partitioner the batched plane cannot reproduce it and must defer.
        job = make_job(n_reducers=3)
        result = MapReduceEngine().run(job, make_splits())
        assert result.output_batch is None

    def test_bad_batch_partitioner_rejected(self):
        job = make_job(
            n_reducers=2,
            partitioner=mod_partitioner,
            batch_partitioner=lambda keys, n: np.full(len(keys), 7, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="partitioner returned"):
            MapReduceEngine().run(job, make_splits())

    def test_resolve_data_plane(self, monkeypatch):
        assert resolve_data_plane("record") == "record"
        monkeypatch.delenv(DATA_PLANE_ENV, raising=False)
        assert resolve_data_plane(None) == "batched"
        monkeypatch.setenv(DATA_PLANE_ENV, "record")
        assert resolve_data_plane(None) == "record"
        with pytest.raises(ValueError):
            resolve_data_plane("rows")


# -- fault injection falls back cleanly --------------------------------------

class TestChaosFallback:
    def test_faulty_engine_runs_batched_jobs_on_record_path(self):
        job = make_job(n_reducers=2, partitioner=mod_partitioner,
                       batch_partitioner=mod_batch_partitioner)
        splits = make_splits()
        healthy = MapReduceEngine().run(job, splits)
        faulty = FaultyEngine(
            policy=FaultPolicy(failure_rate=0.2, max_attempts=12, seed=3)
        ).run(job, splits)
        # The fault engine overrides the record task hooks, so the batched
        # plane must defer to it — and re-executed attempts stay identical.
        assert faulty.output_batch is None
        assert as_pairs(faulty.output) == as_pairs(healthy.output)
        assert faulty.counters.value("faults", "map_failures") > 0

    def test_faulty_engine_accepts_columnar_splits(self):
        job = make_job()
        batch = RecordBatch(keys=np.arange(10, dtype=np.int64),
                            values=np.arange(10, dtype=np.int64))
        faulty = FaultyEngine(
            policy=FaultPolicy(failure_rate=0.2, max_attempts=12, seed=1)
        ).run(job, [batch])
        healthy = MapReduceEngine().run(job, [batch])
        assert as_pairs(faulty.output) == as_pairs(healthy.output)


# -- shared-memory batch shipping --------------------------------------------

class TestBatchShipping:
    def test_ship_load_roundtrip_small(self):
        batch = RecordBatch.from_records([(i, i * 1.0) for i in range(5)])
        shipped, owners = ship_batch(batch)
        assert owners == [] and shipped is batch
        assert load_batch(shipped) is batch

    def test_ship_load_roundtrip_shared(self):
        batch = RecordBatch(
            keys=np.arange(64, dtype=np.int64),
            values=np.arange(64, dtype=np.float64),
        )
        shipped, owners = ship_batch(batch, min_bytes=64)
        assert owners  # large columns went through shared memory
        try:
            loaded = load_batch(shipped)
            assert np.array_equal(loaded.keys, batch.keys)
            assert np.array_equal(loaded.values, batch.values)
        finally:
            for handle in owners:
                handle.unlink()

    def test_parallel_phase_with_shared_segments_identical(self, monkeypatch):
        # Force every column over shared memory and check bit-identity.
        monkeypatch.setattr(executor_mod, "SHARED_BATCH_MIN_BYTES", 1)
        job = make_job(n_reducers=2, partitioner=mod_partitioner,
                       batch_partitioner=mod_batch_partitioner)
        splits = make_splits()
        parallel = MapReduceEngine(executor=ParallelExecutor(2)).run(job, splits)
        monkeypatch.undo()
        serial = MapReduceEngine().run(job, splits)
        assert parallel.output_batch is not None
        assert_results_identical(parallel, serial)


# -- approx_bytes dict accounting (satellite fix) ----------------------------

class TestApproxBytesDict:
    def test_dict_charges_per_slot_overhead(self):
        # Two pointer words per entry, consistent with list/tuple's one word
        # per slot, plus the recursive content estimate.
        assert approx_bytes({}) == 0
        assert approx_bytes({1: 2}) == 16 + 8 + 8
        assert approx_bytes({"ab": [1, 2]}) == 16 + 2 + (8 * 2 + 16)

    def test_dict_consistent_with_item_tuples(self):
        d = {1: 2.0, 3: 4.0}
        items = list(d.items())
        assert approx_bytes(d) == approx_bytes(items) - 8 * len(items)


# -- full DASC pipeline ------------------------------------------------------

def blob_data(seed=0, n=240, d=5):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal(0, 1, (n // 3, d)),
        rng.normal(6, 1, (n // 3, d)),
        rng.normal(-6, 1, (n - 2 * (n // 3), d)),
    ])


def run_dasc(data_plane, X, *, executor=None, spectral_mode="inline"):
    emr = ElasticMapReduce(executor=executor or SerialExecutor())
    model = DistributedDASC(
        6, n_nodes=4, split_size=64, emr=emr,
        spectral_mode=spectral_mode, data_plane=data_plane,
    )
    return model.run(X)


class TestDistributedEquivalence:
    def test_batched_vs_record_bit_identical(self):
        X = blob_data()
        batched = run_dasc("batched", X)
        record = run_dasc("record", X)
        assert np.array_equal(batched.labels, record.labels)
        assert batched.counters == record.counters
        assert batched.makespan == record.makespan
        assert batched.stage_makespans == record.stage_makespans
        assert batched.gram_bytes == record.gram_bytes
        assert batched.n_clusters == record.n_clusters
        assert batched.n_buckets == record.n_buckets

    def test_batched_parallel_vs_serial_bit_identical(self):
        X = blob_data(seed=1)
        serial = run_dasc("batched", X)
        parallel = run_dasc("batched", X, executor=ParallelExecutor(2))
        assert np.array_equal(serial.labels, parallel.labels)
        assert serial.counters == parallel.counters
        assert serial.makespan == parallel.makespan

    def test_mahout_mode_unaffected_by_data_plane(self):
        X = blob_data(seed=2, n=150)
        batched = run_dasc("batched", X, spectral_mode="mahout")
        record = run_dasc("record", X, spectral_mode="mahout")
        assert np.array_equal(batched.labels, record.labels)

    def test_env_kill_switch_reaches_driver(self, monkeypatch):
        monkeypatch.setenv(DATA_PLANE_ENV, "record")
        model = DistributedDASC(4, n_nodes=2)
        assert model.data_plane == "record"


class TestPerfImprovement:
    def test_stage1_and_shuffle_self_time_at_least_3x(self, tmp_path):
        # The acceptance bar: stage-1 map + shuffle self-time on the batched
        # plane beats the record path by >= 3x (measured ~13x; the margin
        # absorbs runner jitter). Same workload shape as
        # benchmarks/perf_smoke.py, scaled up for a stable signal. Each
        # plane is measured as its fastest of three traced runs: with one
        # run per plane the ratio read 2.2x once in a full-suite run.
        from repro.data.synthetic import make_blobs
        from repro.observability import read_trace, snapshot_from_trace, trace_to

        X, _ = make_blobs(1600, n_clusters=4, n_features=16,
                          cluster_std=0.03, seed=0)

        def self_time(plane, run):
            path = str(tmp_path / f"{plane}-{run}.jsonl")
            with trace_to(path):
                run_dasc(plane, X)
            stages = snapshot_from_trace(read_trace(path), plane)["stages"]
            return sum(stages[s]["self"] for s in ("mr.map_task", "mr.shuffle"))

        def self_times(plane):
            return min(self_time(plane, run) for run in range(3))

        record_time = self_times("record")
        batched_time = self_times("batched")
        assert record_time >= 3 * batched_time, (
            f"expected >=3x: record {record_time:.4f}s vs batched {batched_time:.4f}s"
        )
