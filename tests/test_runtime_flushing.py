"""GCS flushing wired into the runtime: bounded memory, durable lineage."""

import pytest

import repro


@repro.remote
def produce(i):
    return bytes([i % 256]) * 1000


class TestRuntimeFlushing:
    def test_flusher_bounds_task_table(self, tmp_path):
        rt = repro.init(
            num_nodes=1,
            num_cpus_per_node=4,
            gcs_flush_path=str(tmp_path / "lineage.bin"),
            gcs_flush_threshold=80,
        )
        try:
            for batch in range(4):
                refs = [produce.remote(batch * 100 + i) for i in range(100)]
                repro.get(refs, timeout=60)
            # Flushing ran (triggered every 100 completions).
            assert rt.flusher.flushed_entries > 0
            # Way fewer than 400 task rows remain in memory.
            assert rt.gcs.num_tasks() < 300
        finally:
            repro.shutdown()

    def test_reconstruction_from_flushed_lineage(self, tmp_path):
        """The Fig 10b snapshot is not write-only: a lost object whose
        lineage was flushed to disk is still reconstructible."""
        rt = repro.init(
            num_nodes=1,
            num_cpus_per_node=4,
            gcs_flush_path=str(tmp_path / "lineage.bin"),
            gcs_flush_threshold=10,
        )
        try:
            ref = produce.remote(7)
            expected = repro.get(ref, timeout=20)
            rt.flush_finishes()  # the finish lands behind the get
            # Push the finished record out to disk.
            flushed = rt.flusher.flush()
            assert flushed >= 1
            assert rt.gcs.get_task(rt.gcs.creating_task(ref.object_id)) is None
            # Lose the object, then get it back via disk lineage.
            repro.free(ref)
            assert repro.get(ref, timeout=30) == expected
        finally:
            repro.shutdown()

    def test_lookup_task_readmits_record(self, tmp_path):
        rt = repro.init(
            num_nodes=1,
            gcs_flush_path=str(tmp_path / "lineage.bin"),
        )
        try:
            ref = produce.remote(1)
            repro.get(ref, timeout=20)
            rt.flush_finishes()  # the finish lands behind the get
            task_id = rt.gcs.creating_task(ref.object_id)
            rt.flusher.flush()
            assert rt.gcs.get_task(task_id) is None
            entry = rt.lookup_task(task_id)
            assert entry is not None
            assert rt.gcs.get_task(task_id) is not None  # re-admitted
        finally:
            repro.shutdown()

    def test_no_flusher_by_default(self, runtime):
        assert runtime.flusher is None
        assert runtime.lookup_task(runtime.driver_task_id) is None
