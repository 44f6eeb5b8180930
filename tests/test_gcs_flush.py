"""GCS flushing: bounded memory, durable lineage on disk (Figure 10b)."""

import pytest

from repro.common.ids import FunctionID, NodeID, TaskID
from repro.core.task_spec import TaskSpec
from repro.gcs.client import GlobalControlStore
from repro.gcs.flush import GcsFlusher
from repro.gcs.tables import TaskStatus


@pytest.fixture
def gcs():
    return GlobalControlStore(num_shards=2, num_replicas=1)


NODE = NodeID.from_seed("n")


def _finish_tasks(gcs, count, prefix="t", status=TaskStatus.FINISHED):
    ids = []
    for i in range(count):
        tid = TaskID.from_seed(f"{prefix}{i}")
        gcs.finish_task(tid, status, NODE, [], spec=f"spec-{i}")
        ids.append(tid)
    return ids


class TestFlushMechanics:
    def test_flush_moves_finished_tasks(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        _finish_tasks(gcs, 10)
        assert gcs.num_entries() >= 10
        flushed = flusher.flush()
        assert flushed == 10
        assert gcs.num_entries() == 0
        assert flusher.flushed_task_count() == 10

    def test_pending_tasks_not_flushed(self, gcs, tmp_path):
        """An in-flight (placed, unfinished) row stays in memory."""
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        spec = TaskSpec(
            task_id=TaskID.from_seed("placed"),
            function_id=FunctionID.from_seed("f"),
            function_name="f",
            args=(),
            kwargs=(),
            num_returns=1,
        )
        gcs.set_task_states([(spec, NODE)])
        assert flusher.flush() == 0
        assert gcs.get_task(spec.task_id).status == TaskStatus.SCHEDULED

    def test_failed_tasks_are_flushed(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        _finish_tasks(gcs, 1, prefix="failed", status=TaskStatus.FAILED)
        assert flusher.flush() == 1

    def test_events_are_flushed(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        gcs.record_event("profiling", sample=1)
        gcs.record_event("profiling", sample=2)
        assert flusher.flush() == 2
        assert gcs.events("profiling") == []

    def test_restore_task_reads_durable_lineage(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        ids = _finish_tasks(gcs, 5)
        flusher.flush()
        restored = flusher.restore_task(ids[3])
        assert restored is not None
        assert restored.spec == "spec-3"
        assert flusher.restore_task(TaskID.from_seed("nope")) is None

    def test_multiple_flushes_append(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        _finish_tasks(gcs, 3, prefix="a")
        flusher.flush()
        _finish_tasks(gcs, 4, prefix="b")
        flusher.flush()
        assert flusher.flushed_task_count() == 7


class TestFlushPolicy:
    def test_should_flush_above_threshold(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "f.bin"), max_entries_in_memory=5)
        _finish_tasks(gcs, 10)
        assert flusher.should_flush()
        flusher.maybe_flush()
        assert gcs.num_entries() == 0

    def test_maybe_flush_noop_below_threshold(self, gcs, tmp_path):
        flusher = GcsFlusher(gcs, str(tmp_path / "f.bin"), max_entries_in_memory=100)
        _finish_tasks(gcs, 3)
        assert flusher.maybe_flush() == 0
        assert gcs.num_entries() > 0

    def test_memory_stays_bounded_with_flushing(self, gcs, tmp_path):
        """The Figure 10b property: with periodic flushing the entry count
        stays below the cap; without, it grows with the task count."""
        flusher = GcsFlusher(gcs, str(tmp_path / "f.bin"), max_entries_in_memory=50)
        high_water = 0
        for batch in range(20):
            _finish_tasks(gcs, 10, prefix=f"b{batch}-")
            flusher.maybe_flush()
            high_water = max(high_water, gcs.num_entries())
        assert high_water <= 60  # cap + one batch
        flusher.flush()  # final flush drains the remainder
        assert flusher.flushed_task_count() == 200
        assert gcs.num_entries() == 0
