"""The MapReduce engine: map -> combine -> partition -> sort -> reduce.

Executes a :class:`~repro.mapreduce.types.JobSpec` over input splits with
full Hadoop semantics (per-split map tasks, optional combiner, hash
partitioning, per-partition key sort, one reduce call per key) while
tracking, for every task, an abstract *cost* that the simulated cluster
turns into a makespan. Execution is deterministic; *where* tasks run is the
engine's executor backend:

* the default :class:`~repro.mapreduce.executor.SerialExecutor` runs every
  task in-process (the historical behavior);
* a :class:`~repro.mapreduce.executor.ParallelExecutor` fans independent
  map tasks and per-partition reduce tasks out across worker processes and
  collects the results **in task order**, so outputs, shuffle partitioning
  and counter totals are bit-identical to a serial run — only the real
  wall-clock changes. Jobs whose callables cannot cross a process boundary
  (closures, lambdas) stay on the serial path automatically.

Task bodies are pure module-level functions (:func:`execute_map_task`,
:func:`execute_reduce_task`) so both backends — and the fault-injecting
engine's retries — run literally the same code.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.mapreduce.cluster import SimulatedCluster, TaskStats
from repro.mapreduce.counters import Counters
from repro.mapreduce.executor import default_executor, is_picklable, load_batch, ship_batch
from repro.mapreduce.hdfs import FileSplit
from repro.mapreduce.types import JobSpec, MapTaskResult, RecordBatch
from repro.observability import get_tracer
from repro.observability.metrics import time_buckets

__all__ = [
    "TaskContext",
    "JobResult",
    "MapReduceEngine",
    "stable_hash",
    "approx_bytes",
    "execute_map_task",
    "execute_reduce_task",
    "execute_batch_map_task",
    "execute_batch_reduce_task",
    "DATA_PLANE_ENV",
    "data_plane_enabled",
    "resolve_data_plane",
]

#: Environment variable selecting the data plane ("record" disables batching).
DATA_PLANE_ENV = "REPRO_DATA_PLANE"


def data_plane_enabled() -> bool:
    """Whether batched execution is allowed (``REPRO_DATA_PLANE`` kill switch)."""
    return os.environ.get(DATA_PLANE_ENV, "").strip().lower() != "record"


def resolve_data_plane(mode: str | None = None) -> str:
    """Resolve a data-plane choice: explicit value > environment > batched."""
    if mode is None:
        raw = os.environ.get(DATA_PLANE_ENV, "").strip().lower()
        mode = raw if raw else "batched"
    if mode not in ("batched", "record"):
        raise ValueError(f"data plane must be 'batched' or 'record', got {mode!r}")
    return mode


def approx_bytes(obj) -> int:
    """Cheap recursive estimate of a payload's in-memory size.

    Exact byte accounting would mean pickling every record; traced runs only
    need enough fidelity to attribute shuffle volume and data skew, so numpy
    buffers count their ``nbytes``, strings/bytes their length, containers
    recurse with a small per-slot overhead, and scalars count one machine
    word. Only computed when tracing is enabled.
    """
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 * len(obj) + sum(approx_bytes(v) for v in obj)
    if isinstance(obj, dict):
        # Per-slot overhead charged like list/tuple (one word per stored
        # pointer, two pointers per entry), separate from the recursion.
        return 16 * len(obj) + sum(approx_bytes(k) + approx_bytes(v) for k, v in obj.items())
    return 8


def _validation_enabled() -> bool:
    """Whether the engine should self-check counter conservation.

    The substrate has no per-job config object, so only the global
    ``REPRO_VALIDATE`` switch applies here (lazy import: repro.verify sits
    above the substrate in the layering).
    """
    from repro.verify.invariants import validation_enabled

    return validation_enabled()


@dataclass
class TaskContext:
    """What a running task sees: its job parameters and shared counters."""

    job: JobSpec
    counters: Counters
    task_id: str = ""

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Bump a counter from inside a mapper/reducer."""
        self.counters.increment(group, name, amount)


class JobResult:
    """Everything a driver needs from a finished job.

    ``output`` holds the reduce output records (or the map output of a
    map-only job) and ``partitions`` the output records of each reduce
    partition. A job that ran on the batched plane carries them columnar
    instead — ``output_batch`` (``None`` otherwise) and one batch (or
    ``None`` for an empty partition) per reduce partition — and the two
    record views are built from those batches on first read, so a driver
    that stays columnar never pays for per-record tuples.
    """

    def __init__(
        self,
        job_name: str,
        counters: Counters,
        map_stats: TaskStats,
        reduce_stats: TaskStats,
        *,
        output: list[tuple] | None = None,
        partitions: dict[int, list[tuple]] | None = None,
        output_batch: RecordBatch | None = None,
        partition_batches: dict[int, RecordBatch | None] | None = None,
        from_checkpoint: bool = False,
    ):
        self.job_name = job_name
        self.counters = counters
        self.map_stats = map_stats
        self.reduce_stats = reduce_stats
        self.output_batch = output_batch
        self.from_checkpoint = from_checkpoint  # restored by job-flow recovery
        self._output = output
        self._partitions = partitions
        self._partition_batches = partition_batches

    @property
    def output(self) -> list[tuple]:
        """Output records (built from ``output_batch`` on first read)."""
        if self._output is None:
            batch = self.output_batch
            self._output = batch.to_records() if batch is not None else []
        return self._output

    @property
    def partitions(self) -> dict[int, list[tuple]]:
        """Output records per reduce partition (built on first read)."""
        if self._partitions is None:
            self._partitions = {
                p: batch.to_records() if batch is not None else []
                for p, batch in (self._partition_batches or {}).items()
            }
        return self._partitions

    @property
    def n_output_records(self) -> int:
        """Number of output records, without building the record list."""
        if self.output_batch is not None:
            return len(self.output_batch)
        return len(self.output)

    @property
    def makespan(self) -> float:
        """Simulated wall-clock: map phase + reduce phase (reduce waits for all maps)."""
        return self.map_stats.makespan + self.reduce_stats.makespan

    def __repr__(self) -> str:
        return (
            f"JobResult(job_name={self.job_name!r}, n_output_records="
            f"{self.n_output_records}, makespan={self.makespan!r}, "
            f"from_checkpoint={self.from_checkpoint})"
        )


def stable_hash(key: Any) -> int:
    """A process-independent hash for shuffle partitioning.

    Python's builtin ``hash`` is salted per process for ``str``/``bytes``
    (PYTHONHASHSEED), so hash partitioning with it shuffles string-keyed
    jobs differently across runs. CRC32 over a canonical ``(type, repr)``
    encoding is stable across processes, platforms, and hash seeds —
    matching Hadoop, whose HashPartitioner is deterministic.
    """
    data = f"{type(key).__name__}:{key!r}".encode("utf-8", "backslashreplace")
    return zlib.crc32(data)


def _default_partitioner(key: Any, n_partitions: int) -> int:
    return stable_hash(key) % n_partitions


def _sort_key(item: tuple) -> tuple:
    key = item[0]
    # Keys of mixed types sort by (type name, repr) to stay deterministic.
    return (type(key).__name__, repr(key))


# -- pure task bodies --------------------------------------------------------
#
# Module-level so that (a) worker processes can import them by reference and
# (b) serial, parallel, and fault-retried execution share one code path.


def _combine_records(job: JobSpec, records: list[tuple], ctx: TaskContext) -> list[tuple]:
    grouped: dict[Any, list] = defaultdict(list)
    for key, value in records:
        grouped[key].append(value)
    out: list[tuple] = []
    for key in grouped:
        out.extend(tuple(r) for r in job.combiner(key, grouped[key], ctx))
    ctx.counters.increment("combine", "output_records", len(out))
    return out


def execute_map_task(job: JobSpec, records, ctx: TaskContext) -> MapTaskResult:
    """Run one map task (mapper over every record, then the combiner)."""
    emitted: list[tuple] = []
    cost = 0.0
    n_in = 0
    for record in records:
        key, value = record if isinstance(record, tuple) and len(record) == 2 else (None, record)
        n_in += 1
        for out in job.mapper(key, value, ctx):
            emitted.append(tuple(out))
        cost += job.map_cost(key, value) if job.map_cost else 1.0
    ctx.counters.increment("map", "input_records", n_in)
    ctx.counters.increment("map", "output_records", len(emitted))
    if job.combiner is not None:
        emitted = _combine_records(job, emitted, ctx)
    return MapTaskResult(records=emitted, n_input_records=n_in, cost=cost)


def execute_reduce_task(job: JobSpec, records: list[tuple], ctx: TaskContext):
    """Run one reduce task (one reducer call per key, in first-seen key order)."""
    grouped: dict[Any, list] = defaultdict(list)
    order: list = []
    for key, value in records:
        if key not in grouped:
            order.append(key)
        grouped[key].append(value)
    out: list[tuple] = []
    cost = 0.0
    for key in order:
        values = grouped[key]
        for rec in job.reducer(key, values, ctx):
            out.append(tuple(rec))
        cost += job.reduce_cost(key, values) if job.reduce_cost else float(len(values))
    ctx.counters.increment("reduce", "input_groups", len(order))
    ctx.counters.increment("reduce", "output_records", len(out))
    return out, cost


def _map_task_worker(payload):
    """Process-pool entry point for one map task.

    Returns ``(status, value, counters, elapsed)`` instead of raising so the
    parent can merge partial counters in task order before surfacing an
    error — matching the serial engine's partial-state semantics exactly.
    """
    from repro.mapreduce.executor import _null_child_tracer

    _null_child_tracer()
    job, records, task_id = payload
    counters = Counters()
    ctx = TaskContext(job=job, counters=counters, task_id=task_id)
    start = time.perf_counter()
    try:
        result = execute_map_task(job, records, ctx)
    except Exception as exc:  # surfaced (with counters) by the parent
        return ("error", exc, counters, time.perf_counter() - start)
    return ("ok", result, counters, time.perf_counter() - start)


def _reduce_task_worker(payload):
    """Process-pool entry point for one reduce task (same contract as map)."""
    from repro.mapreduce.executor import _null_child_tracer

    _null_child_tracer()
    job, records, task_id = payload
    counters = Counters()
    ctx = TaskContext(job=job, counters=counters, task_id=task_id)
    start = time.perf_counter()
    try:
        out, cost = execute_reduce_task(job, records, ctx)
    except Exception as exc:
        return ("error", exc, counters, time.perf_counter() - start)
    return ("ok", (out, cost), counters, time.perf_counter() - start)


# -- batched task bodies -----------------------------------------------------
#
# The columnar twins of execute_map_task / execute_reduce_task. The contract
# is bit-identity with the record path: same counter totals, same costs (in
# the same floating-point summation order), same emitted records.


def _batch_map_cost(job: JobSpec, batch: RecordBatch) -> float:
    if job.map_cost is None:
        return float(len(batch))
    # _batched_enabled only admits cost models exposing the vectorized hook.
    return float(job.map_cost.batch_cost(batch))


def execute_batch_map_task(job: JobSpec, batch: RecordBatch, ctx: TaskContext) -> MapTaskResult:
    """Run one batched map task (one ``batch_mapper`` call per split)."""
    out = job.batch_mapper(batch, ctx)
    if not isinstance(out, RecordBatch):
        raise TypeError(
            f"batch_mapper must return a RecordBatch, got {type(out).__name__}"
        )
    cost = _batch_map_cost(job, batch)
    ctx.counters.increment("map", "input_records", len(batch))
    ctx.counters.increment("map", "output_records", len(out))
    return MapTaskResult(records=out, n_input_records=len(batch), cost=cost)


def execute_batch_reduce_task(job: JobSpec, batch: RecordBatch, ctx: TaskContext):
    """Run one batched reduce task (one ``batch_reducer`` call per key group).

    Groups are formed with one ``np.unique`` + stable argsort pass and
    visited in first-seen key order — the record path's grouping semantics —
    so reducer call order, cost summation order, and output order all match.
    """
    keys = batch.keys
    uniq, first_idx, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    starts = np.searchsorted(inv[order], np.arange(uniq.shape[0]))
    ends = np.append(starts[1:], keys.shape[0])
    rank = np.argsort(first_idx, kind="stable")
    out_batches: list[RecordBatch] = []
    cost = 0.0
    n_out = 0
    for u in rank.tolist():
        group = batch.take(order[starts[u] : ends[u]])
        key = uniq[u]
        result = job.batch_reducer(key, group, ctx)
        if not isinstance(result, RecordBatch):
            raise TypeError(
                f"batch_reducer must return a RecordBatch, got {type(result).__name__}"
            )
        if len(result):
            out_batches.append(result)
        n_out += len(result)
        cost += job.reduce_cost(key, group) if job.reduce_cost else float(len(group))
    ctx.counters.increment("reduce", "input_groups", int(uniq.shape[0]))
    ctx.counters.increment("reduce", "output_records", n_out)
    out = RecordBatch.concat(out_batches) if out_batches else None
    return out, cost


def _batch_map_task_worker(payload):
    """Process-pool entry point for one batched map task."""
    from repro.mapreduce.executor import _null_child_tracer

    _null_child_tracer()
    job, shipped, task_id = payload
    counters = Counters()
    ctx = TaskContext(job=job, counters=counters, task_id=task_id)
    start = time.perf_counter()
    try:
        batch = load_batch(shipped)
        result = execute_batch_map_task(job, batch, ctx)
    except Exception as exc:
        return ("error", exc, counters, time.perf_counter() - start)
    return ("ok", result, counters, time.perf_counter() - start)


def _batch_reduce_task_worker(payload):
    """Process-pool entry point for one batched reduce task."""
    from repro.mapreduce.executor import _null_child_tracer

    _null_child_tracer()
    job, shipped, task_id = payload
    counters = Counters()
    ctx = TaskContext(job=job, counters=counters, task_id=task_id)
    start = time.perf_counter()
    try:
        batch = load_batch(shipped)
        out, cost = execute_batch_reduce_task(job, batch, ctx)
    except Exception as exc:
        return ("error", exc, counters, time.perf_counter() - start)
    return ("ok", (out, cost), counters, time.perf_counter() - start)


class MapReduceEngine:
    """Runs JobSpecs on a :class:`SimulatedCluster`.

    Parameters
    ----------
    cluster:
        The simulated cluster providing slots (default: one single-slot-ish
        node, i.e. serial semantics).
    executor:
        Execution backend for task compute. Default:
        :func:`~repro.mapreduce.executor.default_executor` — serial unless
        ``REPRO_N_JOBS`` asks for workers. The simulated *makespan* is
        unaffected by the backend; only real wall-clock is.
    """

    def __init__(self, cluster: SimulatedCluster | None = None, *, executor=None, autoscaler=None):
        self.cluster = cluster if cluster is not None else SimulatedCluster(1)
        self.executor = executor if executor is not None else default_executor()
        # Between-phase resize hook (see repro.mapreduce.autoscale); a bound
        # JobFlow installs its autoscaler here for the duration of a run.
        self.autoscaler = autoscaler

    # -- public API ----------------------------------------------------------

    def run(self, job: JobSpec, splits: list[FileSplit] | list[list[tuple]]) -> JobResult:
        """Execute ``job`` over ``splits`` and return outputs + statistics.

        ``splits`` may be HDFS :class:`FileSplit` objects or plain lists of
        ``(key, value)`` tuples (each list = one map task).
        """
        tracer = get_tracer()
        with tracer.span("mr.job", job=job.name, n_splits=len(splits)) as job_span:
            result = self._run_job(job, splits, tracer, job_span)
            job_span.set("makespan", result.makespan)
            job_span.set("n_output_records", result.n_output_records)
        return result

    def _parallel_tasks_enabled(self, job: JobSpec) -> bool:
        """Whether this job's tasks may run on the parallel backend.

        Requires a parallel executor, un-overridden task hooks (the fault
        engine's per-attempt retries are inherently in-process), and a
        picklable job spec. Anything else silently stays serial — behavior,
        not performance, is the contract.
        """
        if not getattr(self.executor, "parallel", False):
            return False
        if type(self)._run_map_task is not MapReduceEngine._run_map_task:
            return False
        if type(self)._run_reduce_task is not MapReduceEngine._run_reduce_task:
            return False
        return is_picklable(job)

    def _batched_enabled(self, job: JobSpec) -> bool:
        """Whether this job may run on the batched columnar path.

        Requires batched twins for every record-path hook the job uses, an
        un-subclassed engine core (the fault engine's per-attempt retries
        and any test double override the record hooks, so they fall back to
        the record path cleanly), a vectorizable cost model, and the
        ``REPRO_DATA_PLANE`` switch not forcing "record". Falling back is
        silent: behavior, not performance, is the contract.
        """
        if job.batch_mapper is None or not data_plane_enabled():
            return False
        if job.combiner is not None:
            return False
        if job.reducer is not None:
            if job.batch_reducer is None:
                return False
            if job.n_reducers > 1 and job.batch_partitioner is None:
                return False
        if job.map_cost is not None and not hasattr(job.map_cost, "batch_cost"):
            return False
        cls = type(self)
        for hook in ("_run_map_task", "_run_reduce_task", "_shuffle", "_combine"):
            if getattr(cls, hook) is not getattr(MapReduceEngine, hook):
                return False
        return True

    @staticmethod
    def _as_batches(split_records) -> list[RecordBatch] | None:
        """Every split as a RecordBatch, or ``None`` (→ record path)."""
        batches = []
        for records in split_records:
            if isinstance(records, RecordBatch):
                batches.append(records)
                continue
            batch = RecordBatch.from_records(records)
            if batch is None:
                return None
            batches.append(batch)
        return batches

    def _run_job(self, job: JobSpec, splits, tracer, job_span) -> JobResult:
        parallel = self._parallel_tasks_enabled(job)
        if tracer.enabled:
            job_span.set("executor", self.executor.describe() if parallel else "serial")

        # -- map phase -------------------------------------------------------
        split_records = []
        placements = []
        for split in splits:
            if isinstance(split, FileSplit):
                split_records.append(split.records)
                placements.append(split.preferred_nodes)
            else:
                split_records.append(split)
                placements.append(())
        batches = self._as_batches(split_records) if self._batched_enabled(job) else None
        if tracer.enabled:
            job_span.set("data_plane", "batched" if batches is not None else "record")
        if batches is not None:
            return self._run_job_batched(job, batches, placements, tracer, parallel)
        # Columnar splits run through the record path whenever the job (or
        # the engine subclass) cannot take the batched one.
        split_records = [
            r.to_records() if isinstance(r, RecordBatch) else r for r in split_records
        ]
        counters = Counters()
        validate = _validation_enabled()
        phase_start = time.perf_counter()
        if parallel:
            map_results = self._map_phase_parallel(job, split_records, counters, tracer)
        else:
            map_results = self._map_phase_serial(job, split_records, counters, tracer)
        map_wall = time.perf_counter() - phase_start
        with tracer.span("mr.schedule", phase="map"):
            map_stats = self._schedule_map_phase(map_results, placements, counters)
        map_stats.real_elapsed = map_wall
        counters.increment("job", "map_tasks", len(map_results))
        if validate:
            # Counter conservation: retries and parallel fan-out must tally
            # each input record exactly once (the bit-identity contract).
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "map", "input_records",
                sum(len(records) for records in split_records),
                stage=f"mr.job:{job.name}",
            )

        if job.reducer is None:
            output = [rec for r in map_results for rec in r.records]
            return JobResult(
                job_name=job.name,
                output=output,
                counters=counters,
                map_stats=map_stats,
                reduce_stats=TaskStats(n_tasks=0, total_cost=0.0, makespan=0.0),
            )

        # -- shuffle + reduce phase -----------------------------------------
        with tracer.span("mr.shuffle") as shuffle_span:
            partitions = self._shuffle(job, map_results, counters)
            shuffle_span.set("n_partitions", len(partitions))
            shuffle_span.set("n_records", counters.value("shuffle", "records"))
            if tracer.enabled:
                # Per-partition volumes, in sorted-partition (= reduce task)
                # order: the raw material for skew attribution in the report.
                ordered = sorted(partitions)
                shuffle_span.set(
                    "partition_records", [len(partitions[p]) for p in ordered]
                )
                shuffle_span.set(
                    "bytes", sum(approx_bytes(partitions[p]) for p in ordered)
                )
        phase_start = time.perf_counter()
        if parallel:
            output, partition_outputs, reduce_costs = self._reduce_phase_parallel(
                job, partitions, counters, tracer
            )
        else:
            output, partition_outputs, reduce_costs = self._reduce_phase_serial(
                job, partitions, counters, tracer
            )
        reduce_wall = time.perf_counter() - phase_start
        # Between-phase decision point: the map phase is scheduled and the
        # reduce queue is known, but the reduce phase is not yet placed —
        # resizing here changes the reduce schedule (makespan only; task
        # results are already computed, so outputs stay bit-identical).
        if self.autoscaler is not None:
            self.autoscaler.between_phases(job.name, map_stats, reduce_costs)
        with tracer.span("mr.schedule", phase="reduce"):
            reduce_stats = self._schedule_reduce_phase(reduce_costs, counters)
        reduce_stats.real_elapsed = reduce_wall
        counters.increment("job", "reduce_tasks", len(reduce_costs))
        if validate:
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "reduce", "output_records", len(output),
                stage=f"mr.job:{job.name}",
            )
        return JobResult(
            job_name=job.name,
            output=output,
            counters=counters,
            map_stats=map_stats,
            reduce_stats=reduce_stats,
            partitions=partition_outputs,
        )

    # -- batched columnar path ----------------------------------------------

    def _run_job_batched(self, job, batches, placements, tracer, parallel) -> JobResult:
        """The columnar twin of the record-path body of :meth:`_run_job`.

        Phase structure, span names/attributes, counter totals, scheduling
        inputs, and byte accounting all mirror the record path bit for bit;
        only the per-record Python loops are replaced by array passes.
        """
        counters = Counters()
        validate = _validation_enabled()
        phase_start = time.perf_counter()
        if parallel:
            map_results = self._batch_map_phase_parallel(job, batches, counters, tracer)
        else:
            map_results = self._batch_map_phase_serial(job, batches, counters, tracer)
        map_wall = time.perf_counter() - phase_start
        with tracer.span("mr.schedule", phase="map"):
            map_stats = self._schedule_map_phase(map_results, placements, counters)
        map_stats.real_elapsed = map_wall
        counters.increment("job", "map_tasks", len(map_results))
        if validate:
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "map", "input_records",
                sum(len(batch) for batch in batches),
                stage=f"mr.job:{job.name}",
            )

        if job.reducer is None:
            out_batches = [r.records for r in map_results if len(r.records)]
            return JobResult(
                job_name=job.name,
                counters=counters,
                map_stats=map_stats,
                reduce_stats=TaskStats(n_tasks=0, total_cost=0.0, makespan=0.0),
                output_batch=RecordBatch.concat(out_batches) if out_batches else None,
            )

        # -- shuffle + reduce phase -----------------------------------------
        with tracer.span("mr.shuffle") as shuffle_span:
            partitions = self._shuffle_batched(job, map_results, counters)
            shuffle_span.set("n_partitions", len(partitions))
            shuffle_span.set("n_records", counters.value("shuffle", "records"))
            if tracer.enabled:
                ordered = sorted(partitions)
                shuffle_span.set(
                    "partition_records", [len(partitions[p]) for p in ordered]
                )
                shuffle_span.set(
                    "bytes", sum(approx_bytes(partitions[p]) for p in ordered)
                )
        phase_start = time.perf_counter()
        if parallel:
            partition_batches, reduce_costs = self._batch_reduce_phase_parallel(
                job, partitions, counters, tracer
            )
        else:
            partition_batches, reduce_costs = self._batch_reduce_phase_serial(
                job, partitions, counters, tracer
            )
        out_batches = [b for b in partition_batches.values() if b is not None]
        output_batch = RecordBatch.concat(out_batches) if out_batches else None
        reduce_wall = time.perf_counter() - phase_start
        # Same between-phase decision point as the record path — identical
        # scheduling inputs keep the two data planes' makespans bit-identical.
        if self.autoscaler is not None:
            self.autoscaler.between_phases(job.name, map_stats, reduce_costs)
        with tracer.span("mr.schedule", phase="reduce"):
            reduce_stats = self._schedule_reduce_phase(reduce_costs, counters)
        reduce_stats.real_elapsed = reduce_wall
        counters.increment("job", "reduce_tasks", len(reduce_costs))
        if validate:
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "reduce", "output_records",
                len(output_batch) if output_batch is not None else 0,
                stage=f"mr.job:{job.name}",
            )
        return JobResult(
            job_name=job.name,
            counters=counters,
            map_stats=map_stats,
            reduce_stats=reduce_stats,
            output_batch=output_batch,
            partition_batches=partition_batches,
        )

    def _shuffle_batched(self, job: JobSpec, map_results, counters: Counters):
        """Vectorized shuffle: one partition-id pass + argsort grouping.

        Reproduces the record shuffle exactly: same partition membership
        (via ``batch_partitioner``), same record order within a partition
        (map-task emission order, then — under ``sort_keys`` — a stable
        sort by the key's decimal string, which orders identically to the
        record path's ``repr``-based comparator for uniform numeric keys).
        """
        out_batches = [r.records for r in map_results if len(r.records)]
        if not out_batches:
            counters.increment("shuffle", "records", 0)
            return {}
        merged = RecordBatch.concat(out_batches)
        n = len(merged)
        if job.n_reducers == 1:
            pids = np.zeros(n, dtype=np.int64)
        else:
            pids = np.asarray(job.batch_partitioner(merged.keys, job.n_reducers))
            bad = (pids < 0) | (pids >= job.n_reducers)
            if bad.any():
                p = int(pids[np.argmax(bad)])
                raise ValueError(
                    f"partitioner returned {p}, valid range [0, {job.n_reducers})"
                )
        counters.increment("shuffle", "records", n)
        order = np.argsort(pids, kind="stable")
        sorted_pids = pids[order]
        present = np.unique(sorted_pids)
        starts = np.searchsorted(sorted_pids, present, side="left")
        ends = np.searchsorted(sorted_pids, present, side="right")
        partitions: dict[int, RecordBatch] = {}
        for p, s, e in zip(present.tolist(), starts.tolist(), ends.tolist()):
            part = merged.take(order[s:e])
            if job.sort_keys:
                part = part.take(np.argsort(part.keys.astype(str), kind="stable"))
            partitions[int(p)] = part
        return partitions

    def _batch_map_phase_serial(self, job, batches, counters, tracer):
        map_results = []
        try:
            for i, batch in enumerate(batches):
                ctx = TaskContext(job=job, counters=counters, task_id=f"map-{i}")
                with tracer.span("mr.map_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    result = execute_batch_map_task(job, batch, ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", result.cost)
                        task_span.set("n_input_records", result.n_input_records)
                        task_span.set("n_output_records", len(result.records))
                        task_span.set("bytes_in", approx_bytes(batch))
                        task_span.set("bytes_out", approx_bytes(result.records))
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                map_results.append(result)
        except Exception as exc:
            exc.counters = counters
            raise
        return map_results

    def _batch_map_phase_parallel(self, job, batches, counters, tracer):
        payloads = []
        owners = []
        for i, batch in enumerate(batches):
            shipped, own = ship_batch(batch)
            owners.extend(own)
            payloads.append((job, shipped, f"map-{i}"))
        try:
            outcomes = self.executor.map_ordered(_batch_map_task_worker, payloads)
        finally:
            for handle in owners:
                handle.unlink()
        map_results = []
        for i, (status, value, task_counters, elapsed) in enumerate(outcomes):
            counters.merge(task_counters)
            if status == "error":
                value.counters = counters
                raise value
            with tracer.span("mr.map_task", task=f"map-{i}") as task_span:
                if tracer.enabled:
                    task_span.set("cost", value.cost)
                    task_span.set("n_input_records", value.n_input_records)
                    task_span.set("n_output_records", len(value.records))
                    task_span.set("bytes_in", approx_bytes(batches[i]))
                    task_span.set("bytes_out", approx_bytes(value.records))
                    task_span.set("counters", task_counters.as_dict())
                    task_span.set("worker_time", elapsed)
                    tracer.metrics.histogram(
                        "mr.task_seconds", time_buckets()
                    ).observe(elapsed)
            map_results.append(value)
        return map_results

    def _batch_reduce_phase_serial(self, job, partitions, counters, tracer):
        reduce_costs = []
        partition_batches: dict[int, RecordBatch | None] = {}
        try:
            for p in sorted(partitions):
                ctx = TaskContext(job=job, counters=counters, task_id=f"reduce-{p}")
                with tracer.span("mr.reduce_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    part_out, cost = execute_batch_reduce_task(job, partitions[p], ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", cost)
                        task_span.set("n_input_records", len(partitions[p]))
                        task_span.set("n_output_records", len(part_out) if part_out else 0)
                        task_span.set("bytes_in", approx_bytes(partitions[p]))
                        task_span.set("bytes_out", approx_bytes(part_out) if part_out else 0)
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                partition_batches[p] = part_out
                reduce_costs.append(cost)
        except Exception as exc:
            exc.counters = counters
            raise
        return partition_batches, reduce_costs

    def _batch_reduce_phase_parallel(self, job, partitions, counters, tracer):
        order = sorted(partitions)
        payloads = []
        owners = []
        for p in order:
            shipped, own = ship_batch(partitions[p])
            owners.extend(own)
            payloads.append((job, shipped, f"reduce-{p}"))
        try:
            outcomes = self.executor.map_ordered(_batch_reduce_task_worker, payloads)
        finally:
            for handle in owners:
                handle.unlink()
        reduce_costs = []
        partition_batches: dict[int, RecordBatch | None] = {}
        for p, (status, value, task_counters, elapsed) in zip(order, outcomes):
            counters.merge(task_counters)
            if status == "error":
                value.counters = counters
                raise value
            part_out, cost = value
            with tracer.span("mr.reduce_task", task=f"reduce-{p}") as task_span:
                if tracer.enabled:
                    task_span.set("cost", cost)
                    task_span.set("n_input_records", len(partitions[p]))
                    task_span.set("n_output_records", len(part_out) if part_out else 0)
                    task_span.set("bytes_in", approx_bytes(partitions[p]))
                    task_span.set("bytes_out", approx_bytes(part_out) if part_out else 0)
                    task_span.set("counters", task_counters.as_dict())
                    task_span.set("worker_time", elapsed)
                    tracer.metrics.histogram(
                        "mr.task_seconds", time_buckets()
                    ).observe(elapsed)
            partition_batches[p] = part_out
            reduce_costs.append(cost)
        return partition_batches, reduce_costs

    # -- phase drivers (serial / parallel) -----------------------------------

    def _map_phase_serial(self, job, split_records, counters, tracer):
        map_results = []
        try:
            for i, records in enumerate(split_records):
                ctx = TaskContext(job=job, counters=counters, task_id=f"map-{i}")
                with tracer.span("mr.map_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    result = self._run_map_task(job, records, ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", result.cost)
                        task_span.set("n_input_records", result.n_input_records)
                        task_span.set("n_output_records", len(result.records))
                        task_span.set("bytes_in", approx_bytes(records))
                        task_span.set("bytes_out", approx_bytes(result.records))
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                map_results.append(result)
        except Exception as exc:
            # Let structured error handling upstream (JobFlowError) report
            # the partial counter state of the failed job.
            exc.counters = counters
            raise
        return map_results

    def _map_phase_parallel(self, job, split_records, counters, tracer):
        payloads = [
            (job, records, f"map-{i}") for i, records in enumerate(split_records)
        ]
        outcomes = self.executor.map_ordered(_map_task_worker, payloads)
        map_results = []
        for i, (status, value, task_counters, elapsed) in enumerate(outcomes):
            # Merge in task order: identical totals to the serial shared-
            # counter path, and on error the merged prefix (plus the failing
            # task's partial increments) matches serial partial state.
            counters.merge(task_counters)
            if status == "error":
                value.counters = counters
                raise value
            with tracer.span("mr.map_task", task=f"map-{i}") as task_span:
                if tracer.enabled:
                    task_span.set("cost", value.cost)
                    task_span.set("n_input_records", value.n_input_records)
                    task_span.set("n_output_records", len(value.records))
                    task_span.set("bytes_in", approx_bytes(split_records[i]))
                    task_span.set("bytes_out", approx_bytes(value.records))
                    task_span.set("counters", task_counters.as_dict())
                    task_span.set("worker_time", elapsed)
                    tracer.metrics.histogram(
                        "mr.task_seconds", time_buckets()
                    ).observe(elapsed)
            map_results.append(value)
        return map_results

    def _reduce_phase_serial(self, job, partitions, counters, tracer):
        output: list[tuple] = []
        reduce_costs = []
        partition_outputs: dict[int, list[tuple]] = {}
        try:
            for p in sorted(partitions):
                ctx = TaskContext(job=job, counters=counters, task_id=f"reduce-{p}")
                with tracer.span("mr.reduce_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    part_out, cost = self._run_reduce_task(job, partitions[p], ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", cost)
                        task_span.set("n_input_records", len(partitions[p]))
                        task_span.set("n_output_records", len(part_out))
                        task_span.set("bytes_in", approx_bytes(partitions[p]))
                        task_span.set("bytes_out", approx_bytes(part_out))
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                partition_outputs[p] = part_out
                output.extend(part_out)
                reduce_costs.append(cost)
        except Exception as exc:
            exc.counters = counters
            raise
        return output, partition_outputs, reduce_costs

    def _reduce_phase_parallel(self, job, partitions, counters, tracer):
        order = sorted(partitions)
        payloads = [(job, partitions[p], f"reduce-{p}") for p in order]
        outcomes = self.executor.map_ordered(_reduce_task_worker, payloads)
        output: list[tuple] = []
        reduce_costs = []
        partition_outputs: dict[int, list[tuple]] = {}
        for p, (status, value, task_counters, elapsed) in zip(order, outcomes):
            counters.merge(task_counters)
            if status == "error":
                value.counters = counters
                raise value
            part_out, cost = value
            with tracer.span("mr.reduce_task", task=f"reduce-{p}") as task_span:
                if tracer.enabled:
                    task_span.set("cost", cost)
                    task_span.set("n_input_records", len(partitions[p]))
                    task_span.set("n_output_records", len(part_out))
                    task_span.set("bytes_in", approx_bytes(partitions[p]))
                    task_span.set("bytes_out", approx_bytes(part_out))
                    task_span.set("counters", task_counters.as_dict())
                    task_span.set("worker_time", elapsed)
                    tracer.metrics.histogram(
                        "mr.task_seconds", time_buckets()
                    ).observe(elapsed)
            partition_outputs[p] = part_out
            output.extend(part_out)
            reduce_costs.append(cost)
        return output, partition_outputs, reduce_costs

    # -- scheduling hooks (overridden by the fault-injecting engine) ---------

    def _schedule_map_phase(self, map_results, placements, counters: Counters) -> TaskStats:
        """Place the executed map tasks' costs on the simulated cluster."""
        if any(placements):
            # HDFS splits carry replica locations: schedule data-locally.
            return self.cluster.schedule_with_locality(
                [(r.cost, p) for r, p in zip(map_results, placements)], phase="map"
            )
        return self.cluster.schedule([r.cost for r in map_results], phase="map")

    def _schedule_reduce_phase(self, reduce_costs, counters: Counters) -> TaskStats:
        """Place the executed reduce tasks' costs on the simulated cluster."""
        return self.cluster.schedule(reduce_costs, phase="reduce")

    # -- task hooks (overridden by the fault-injecting engine) ---------------

    def _run_map_task(self, job: JobSpec, records, ctx: TaskContext) -> MapTaskResult:
        return execute_map_task(job, records, ctx)

    def _combine(self, job: JobSpec, records: list[tuple], ctx: TaskContext) -> list[tuple]:
        return _combine_records(job, records, ctx)

    def _shuffle(self, job: JobSpec, map_results: list[MapTaskResult], counters: Counters):
        partitioner = job.partitioner or _default_partitioner
        partitions: dict[int, list[tuple]] = defaultdict(list)
        n_shuffled = 0
        for result in map_results:
            for record in result.records:
                p = partitioner(record[0], job.n_reducers)
                if not 0 <= p < job.n_reducers:
                    raise ValueError(f"partitioner returned {p}, valid range [0, {job.n_reducers})")
                partitions[p].append(record)
                n_shuffled += 1
        counters.increment("shuffle", "records", n_shuffled)
        if job.sort_keys:
            for p in partitions:
                partitions[p].sort(key=_sort_key)
        return partitions

    def _run_reduce_task(self, job: JobSpec, records: list[tuple], ctx: TaskContext):
        return execute_reduce_task(job, records, ctx)
