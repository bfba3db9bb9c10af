"""Checkpointed job-flow recovery: crash, resume, structured failures."""

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import (
    ElasticMapReduce,
    FaultPolicy,
    FaultyEngine,
    JobFlowError,
    JobSpec,
    MapReduceEngine,
    RecordBatch,
    SimulatedHDFS,
)
from repro.mapreduce.engine import DATA_PLANE_ENV
from repro.mapreduce.job import JobFlow


def double_mapper(key, value, ctx):
    yield (key, value * 2)


def sum_reducer(key, values, ctx):
    yield (key, sum(values))


def make_flow(store=None):
    flow = JobFlow(
        engine=MapReduceEngine(),
        fs=SimulatedHDFS(2),
        checkpoint_store=store,
        checkpoint_prefix="flows/test/checkpoints",
    )
    flow.fs.write("in", [(i, i) for i in range(10)], split_size=4)
    flow.add_job(JobSpec(name="double", mapper=double_mapper), "in", "mid")
    flow.add_job(JobSpec(name="sum", mapper=double_mapper, reducer=sum_reducer), "mid", "out")
    return flow


class TestJobFlowCheckpointing:
    def test_checkpoints_written_per_job_step(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        flow = make_flow(store)
        flow.run()
        assert store.exists("flows/test/checkpoints/step-000")
        assert store.exists("flows/test/checkpoints/step-001")

    def test_max_steps_simulates_crash(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        flow = make_flow(store)
        flow.run(max_steps=1)
        assert len(flow.results) == 1
        assert not flow.fs.exists("out")

    def test_resume_restores_completed_steps(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        complete = make_flow(store=None)
        complete.run()
        expected = complete.fs.read("out")

        flow = make_flow(store)
        flow.run(max_steps=1)  # crash after step 0
        results = flow.run(resume=True)
        assert flow.restored_steps == [0]
        assert results[0].from_checkpoint
        assert not results[1].from_checkpoint
        assert flow.fs.read("out") == expected
        # The restored step reports its original counters and makespan.
        assert results[0].counters.value("job", "map_tasks") == 3
        assert results[0].makespan > 0

    def test_resume_without_checkpoints_reruns_everything(self):
        flow = make_flow(store=None)
        flow.run(max_steps=1)
        results = flow.run(resume=True)
        assert flow.restored_steps == []
        assert not results[0].from_checkpoint


class TestJobFlowError:
    def test_exhausted_retries_surface_structured_error(self):
        flow = make_flow()
        flow.engine = FaultyEngine(policy=FaultPolicy(failure_rate=0.99, max_attempts=1, seed=0))
        with pytest.raises(JobFlowError) as err:
            flow.run()
        assert err.value.step_index == 0
        assert err.value.step_name == "double"
        assert err.value.counters is not None
        assert err.value.counters.value("faults", "map_failures") > 0


class TestDistributedDASCResume:
    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_resume_after_driver_crash(self, blobs_small, crash_after):
        """A crash between stages resumes from checkpoints with identical labels."""
        X, _ = blobs_small
        baseline = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)

        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=crash_after)  # driver dies mid-flow
        with pytest.raises(RuntimeError):
            dasc.collect(flow_id)  # incomplete flow is not collectable
        result = dasc.resume(flow_id)

        assert np.array_equal(result.labels, baseline.labels)
        # Stage 1 (the LSH pass) was restored, not redone.
        assert 0 in result.resumed_steps
        assert result.counters == baseline.counters
        assert result.makespan == pytest.approx(baseline.makespan)

    def test_resume_mahout_mode(self, blobs_small):
        X, _ = blobs_small
        baseline = DistributedDASC(
            4, n_nodes=4, config=DASCConfig(seed=0), spectral_mode="mahout"
        ).run(X)

        emr = ElasticMapReduce()
        dasc = DistributedDASC(
            4, n_nodes=4, config=DASCConfig(seed=0), emr=emr, spectral_mode="mahout"
        )
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=1)
        result = dasc.resume(flow_id)
        assert np.array_equal(result.labels, baseline.labels)
        assert 0 in result.resumed_steps

    def test_unknown_flow_rejected(self, blobs_small):
        dasc = DistributedDASC(4, n_nodes=2)
        with pytest.raises(KeyError):
            dasc.collect("j-999999")


def array_bytes(batch):
    """Bytes held by a RecordBatch's key and value arrays."""

    def column_bytes(values):
        if isinstance(values, tuple):
            return sum(column_bytes(col) for col in values)
        return values.nbytes

    return batch.keys.nbytes + column_bytes(batch.values)


class TestColumnarCheckpoints:
    """Batched steps checkpoint their RecordBatch; a resume stays columnar."""

    @pytest.fixture(autouse=True)
    def batched_plane(self, monkeypatch):
        monkeypatch.delenv(DATA_PLANE_ENV, raising=False)

    def crash_after_stage1(self, X):
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=1)  # driver dies after step 0
        return emr, dasc, flow_id

    def test_batched_step_checkpoints_its_batch(self, blobs_small):
        """Structural guard: the payload is a few arrays, not one tuple per point."""
        X, _ = blobs_small
        emr, _, flow_id = self.crash_after_stage1(X)
        key = f"{flow_id}/checkpoints/step-000"
        payload = emr.storage.get(key)
        assert "output" not in payload
        batch = payload["output_batch"]
        assert isinstance(batch, RecordBatch)
        assert len(batch) == len(X)
        assert not any(isinstance(v, list) and len(v) >= len(X) for v in payload.values())
        # Pickled arrays cost their bytes plus a small fixed header; a record
        # list of (signature, (index, vector)) tuples costs several times more.
        assert len(emr.s3.get(key)) <= 1.2 * array_bytes(batch)

    def test_every_batched_job_step_is_columnar(self, blobs_small):
        X, _ = blobs_small
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id)
        dasc.collect(flow_id)
        for index in (0, 2):  # stage 1 (LSH) and stage 2 (spectral)
            payload = emr.storage.get(f"{flow_id}/checkpoints/step-{index:03d}")
            assert isinstance(payload["output_batch"], RecordBatch)
            assert "output" not in payload

    def test_batched_run_builds_no_record_tuples(self, blobs_small, monkeypatch):
        """The driver and the checkpoints read batches; nothing asks for records."""
        X, _ = blobs_small
        calls = []
        to_records = RecordBatch.to_records

        def counting_to_records(batch):
            calls.append(len(batch))
            return to_records(batch)

        monkeypatch.setattr(RecordBatch, "to_records", counting_to_records)
        DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)
        assert calls == []

    def test_record_plane_step_checkpoints_records(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        flow = make_flow(store)  # record-only jobs: no batched twins
        flow.run()
        client = flow._checkpoint_client()
        payload = client.get("flows/test/checkpoints/step-000")
        assert "output_batch" not in payload
        assert payload["output"] == flow.results[0].output

    def test_resume_stays_columnar(self, blobs_small):
        """A resumed flow keeps the batched plane for the merge and stage 2."""
        X, _ = blobs_small
        baseline = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)

        emr, dasc, flow_id = self.crash_after_stage1(X)
        flow = emr._flow(flow_id).flow
        result = dasc.resume(flow_id)
        assert 0 in result.resumed_steps
        assert isinstance(flow.fs.read("signatures"), RecordBatch)
        assert isinstance(flow.fs.read("buckets"), RecordBatch)
        assert np.array_equal(result.labels, baseline.labels)
        assert result.counters == baseline.counters
        assert result.makespan == baseline.makespan
        assert result.stage_makespans == baseline.stage_makespans

    def test_record_checkpoint_still_restores(self, blobs_small):
        """A checkpoint holding a record list (no batch key) still restores."""
        X, _ = blobs_small
        baseline = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)

        emr, dasc, flow_id = self.crash_after_stage1(X)
        key = f"{flow_id}/checkpoints/step-000"
        payload = emr.storage.get(key)
        payload["output"] = payload.pop("output_batch").to_records()
        emr.storage.put(key, payload)

        result = dasc.resume(flow_id)
        assert 0 in result.resumed_steps
        assert isinstance(emr._flow(flow_id).flow.fs.read("signatures"), list)
        assert np.array_equal(result.labels, baseline.labels)
        assert result.counters == baseline.counters
        assert result.makespan == baseline.makespan
