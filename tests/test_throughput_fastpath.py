"""Task-throughput paths: batched ``submit_many`` submission, placement
handing ready tasks straight to pooled workers, and the client-side GCS
caches — correctness under contention and node death; single and batch
submission, and batched and per-op writes, must leave identical GCS state."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.common.ids import FunctionID, NodeID, ObjectID, TaskID
from repro.core.task_spec import TaskSpec
from repro.gcs.client import GlobalControlStore
from repro.gcs.shard import ShardedKV
from repro.gcs.tables import TaskStatus


@repro.remote
def add_one(x):
    return x + 1


_GATE = threading.Event()


@repro.remote
def wait_gate():
    _GATE.wait(10)
    return 1


def counter_value(runtime, name: str) -> float:
    total = 0.0
    for family in runtime.metrics.families():
        if family.name == name:
            total += sum(m.value for m in family.series.values())
    return total


# ---------------------------------------------------------------------------
# submit_many: the batched submission API
# ---------------------------------------------------------------------------


class TestSubmitMany:
    def test_results_match_sequential_remote(self, runtime):
        refs = repro.submit_many(add_one, [(i,) for i in range(20)])
        assert repro.get(refs, timeout=30) == [i + 1 for i in range(20)]

    def test_rejects_plain_functions(self, runtime):
        with pytest.raises(TypeError):
            repro.submit_many(lambda x: x, [(1,)])

    def test_batched_and_unbatched_submission_identical_tables(self):
        """``add_tasks`` is purely a write-coalescing choice: the batch and
        its per-op reference must leave the same task rows and the same
        event-log shape behind."""
        node_id = NodeID.from_seed("actor-node")

        def tables(batched: bool):
            gcs = GlobalControlStore(num_shards=4)
            specs = [
                TaskSpec(
                    task_id=TaskID.from_seed(f"wave-{i}"),
                    function_id=FunctionID.from_seed("add_one"),
                    function_name="add_one",
                    args=(i,),
                    kwargs=(),
                    num_returns=1,
                )
                for i in range(12)
            ]
            events = [
                ("task_submitted", dict(task=spec.task_id.short(), t=0.0))
                for spec in specs
            ]
            try:
                gcs.add_tasks(specs, node_id, events=events, batched=batched)
                rows = [gcs.get_task(spec.task_id) for spec in specs]
                log = [
                    (record.seq, record.as_dict()["task"])
                    for record in gcs.events("task_submitted")
                ]
                return rows, log
            finally:
                gcs.kv.close()

        batched_rows, batched_log = tables(True)
        unbatched_rows, unbatched_log = tables(False)
        assert batched_rows == unbatched_rows
        assert all(
            (row.status, row.node_id) == (TaskStatus.SCHEDULED, node_id)
            for row in batched_rows
        )
        assert batched_log == unbatched_log
        assert len(batched_log) == 12

    @staticmethod
    def _run_wave(submit):
        rt = repro.init(
            num_nodes=1, num_cpus_per_node=4, spillback_threshold=1000
        )
        try:
            values = repro.get(submit(range(12)), timeout=30)
            rt.flush_finishes()  # the finishes land behind the get
            rows = sorted(
                (entry.spec.function_name, entry.spec.args, entry.status)
                for entry in rt.gcs.tasks_with_status(TaskStatus.FINISHED)
            )
            events = {
                category: len(rt.gcs.events(category))
                for category in rt.gcs.event_categories()
            }
            return values, rows, events
        finally:
            repro.shutdown()

    def test_single_submits_and_one_batch_leave_identical_tables(self):
        """``.remote()`` is the batch of one: twelve single submissions
        and one ``submit_many`` of the same twelve calls go through the
        same submit stage and leave the same rows and event counts."""
        single = self._run_wave(lambda xs: [add_one.remote(x) for x in xs])
        batch = self._run_wave(
            lambda xs: add_one.submit_many([(x,) for x in xs])
        )
        assert single == batch
        values, rows, events = single
        assert values == [x + 1 for x in range(12)]
        assert len(rows) == 12
        assert events["task_submitted"] == 12


# ---------------------------------------------------------------------------
# Placement hands a ready task to a worker itself
# (``scheduler_fastpath_total``)
# ---------------------------------------------------------------------------


class TestSubmitFastpath:
    def test_sequential_submissions_take_fast_path(self):
        """On an idle node each submission's own placement hands it to a
        worker."""
        rt = repro.init(num_nodes=1, num_cpus_per_node=4)
        try:
            assert repro.get(add_one.remote(0), timeout=10) == 1  # warm
            before = counter_value(rt, "scheduler_fastpath_total")
            for i in range(5):
                assert repro.get(add_one.remote(i), timeout=10) == i + 1
            taken = counter_value(rt, "scheduler_fastpath_total") - before
            assert taken == 5
        finally:
            repro.shutdown()

    def test_fast_path_steps_aside_under_contention(self):
        """With every CPU slot held by a blocked task, later submissions
        stay queued — their placement hands nothing to a worker, so the
        counter does not move — and still all complete once the workers
        free up, each handed off by the worker whose release made room."""
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        try:
            _GATE.clear()
            blockers = [wait_gate.remote() for _ in range(2)]
            baseline = counter_value(rt, "scheduler_fastpath_total")
            queued = [add_one.remote(i) for i in range(8)]
            # Saturated node: no queued task is handed off by its placement.
            assert counter_value(rt, "scheduler_fastpath_total") == baseline
            _GATE.set()
            assert repro.get(blockers, timeout=20) == [1, 1]
            assert repro.get(queued, timeout=20) == [i + 1 for i in range(8)]
        finally:
            _GATE.set()
            repro.shutdown()


# ---------------------------------------------------------------------------
# Fault tolerance: single- and batch-submitted tasks leave a complete task
# table behind, so kill_node resubmission and lineage replay work.
# ---------------------------------------------------------------------------


class TestFastpathFaultTolerance:
    def test_kill_node_reexecutes_batch_submitted_tasks(self, runtime):
        refs = repro.submit_many(add_one, [(i,) for i in range(16)])
        assert repro.get(refs, timeout=20) == [i + 1 for i in range(16)]
        victim = [
            n for n in runtime.nodes() if n is not runtime.driver_node
        ][0]
        runtime.kill_node(victim.node_id)
        # Lost copies must be recoverable purely from the task rows the
        # batched submission wrote.
        assert repro.get(refs, timeout=30) == [i + 1 for i in range(16)]

    def test_kill_node_mid_wave_completes_all_tasks(self, runtime):
        refs = repro.submit_many(add_one, [(i,) for i in range(32)])
        victim = [
            n for n in runtime.nodes() if n is not runtime.driver_node
        ][0]
        runtime.kill_node(victim.node_id)
        assert repro.get(refs, timeout=30) == [i + 1 for i in range(32)]

    def test_fastpathed_chain_survives_node_death(self, runtime):
        ref = add_one.remote(0)
        for _ in range(5):
            ref = add_one.remote(ref)
        assert repro.get(ref, timeout=20) == 6
        victim = [
            n for n in runtime.nodes() if n is not runtime.driver_node
        ][0]
        runtime.kill_node(victim.node_id)
        ref2 = add_one.remote(ref)
        assert repro.get(ref2, timeout=30) == 7


# ---------------------------------------------------------------------------
# Client-side GCS caches
# ---------------------------------------------------------------------------


class TestClientSideCaches:
    def test_function_cache_serves_without_remote_read(self):
        gcs = GlobalControlStore()
        fid = FunctionID.from_seed("cached-fn")
        gcs.register_function(fid, lambda: 42)
        reads = []
        original = gcs.kv.get
        gcs.kv.get = lambda *a, **k: (reads.append(a), original(*a, **k))[1]
        assert gcs.get_function(fid)() == 42
        assert reads == []

    def test_location_hint_follows_publication(self):
        gcs = GlobalControlStore()
        oid = ObjectID.from_seed("hinted")
        node = NodeID.from_seed("n")
        assert not gcs.has_location_hint(oid)
        gcs.add_object_location(oid, node)
        assert gcs.has_location_hint(oid)
        # Retraction keeps the hint: it only forces the checked path.
        gcs.remove_object_location(oid, node)
        assert gcs.has_location_hint(oid)

    def test_hint_set_by_batched_finish(self, single_node_runtime):
        ref = add_one.remote(1)
        assert repro.get(ref, timeout=10) == 2
        single_node_runtime.flush_finishes()  # the finish lands behind the get
        assert single_node_runtime.gcs.has_location_hint(ref.object_id)


# ---------------------------------------------------------------------------
# Parallel per-shard batch flush
# ---------------------------------------------------------------------------


class TestParallelShardFlush:
    def test_multi_shard_batch_with_hop_delay_lands_everywhere(self):
        kv = ShardedKV(num_shards=4, num_replicas=2, hop_delay=1e-4)
        try:
            keys = [("t", ObjectID.from_seed(f"k{i}")) for i in range(32)]
            kv.batch([("put", key, index) for index, key in enumerate(keys)])
            for index, key in enumerate(keys):
                assert kv.get(key) == index
        finally:
            kv.close()

    def test_batch_preserves_per_key_append_order(self):
        kv = ShardedKV(num_shards=4, num_replicas=2, hop_delay=1e-4)
        try:
            log_key = ("log", ObjectID.from_seed("ordered"))
            other = [("t", ObjectID.from_seed(f"o{i}")) for i in range(8)]
            ops = [("append", log_key, i) for i in range(6)]
            ops += [("put", key, 1) for key in other]
            kv.batch(ops)
            assert kv.log(log_key) == list(range(6))
        finally:
            kv.close()
